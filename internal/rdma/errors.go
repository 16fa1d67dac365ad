package rdma

import "errors"

// Typed verb failures. Real verbs surfaces (ibverbs work completions, QP
// state transitions) report failures the index protocols must distinguish:
// a completion that never arrived can be retried, a queue pair in the error
// state must be torn down and re-established, and a memory server that lost
// its registered region is gone for good — its rkeys are invalid and no
// amount of retrying brings the pages back. Transports and the fault
// injector wrap these sentinels so clients can classify with errors.Is.
var (
	// ErrTimeout reports a verb whose completion did not arrive within the
	// deadline (a delayed or dropped completion). Under this repository's
	// fault model a timed-out verb was never executed by the remote side:
	// the RC transport retries the WQE transparently and signals failure
	// only after exhausting NIC-level retries, before the request is acked
	// (see DESIGN.md §9). Retrying it is therefore safe for every verb.
	ErrTimeout = errors.New("rdma: verb timed out")

	// ErrQPError reports a queue pair in the error state: every posted and
	// future work request on it is flushed. The connection to that server
	// must be re-established (Reconnector) before verbs can succeed.
	ErrQPError = errors.New("rdma: queue pair in error state")

	// ErrServerDown reports a memory server that is currently unreachable
	// (crashed, restarting). It may come back; retrying with backoff is the
	// right response.
	ErrServerDown = errors.New("rdma: memory server unreachable")

	// ErrServerLost reports a memory server that restarted and lost its
	// registered region: the remote pointers and rkeys held by this client
	// are permanently invalid. Not retryable — the operation must surface
	// the loss to its caller.
	ErrServerLost = errors.New("rdma: memory server lost registered region")

	// ErrGroupMoved reports that a replica group failed over while the verb
	// was in flight: the target server is no longer the group's acting
	// primary (or a mirror push observed a newer group epoch). The verb was
	// not (or must be treated as not) applied.
	//
	// Deliberately NOT transient: blindly re-driving the same verb against
	// the newly promoted primary is unsound — e.g. replaying an
	// unlock FETCH_AND_ADD against the promoted copy would *lock* its page
	// with no unlock ever coming. The whole operation must instead abort,
	// cross an epoch fence, and re-run from the root under the new routing
	// (core.Recovered treats this error as op-recoverable).
	ErrGroupMoved = errors.New("rdma: replica group moved (primary failed over)")

	// ErrRemoteAccess reports a verb the target rejected because its remote
	// address is not a valid one: outside the registered region, misaligned,
	// or a FREE of a block the server never handed out — the analogue of a
	// work completion with IBV_WC_REM_ACCESS_ERR. The verb was not executed.
	// Not transient: the same address fails again.
	ErrRemoteAccess = errors.New("rdma: remote access error")
)

// IsTransient reports whether err is a verb failure that a bounded retry
// (plus, for QP errors, a reconnect) can be expected to clear. ErrServerLost
// is deliberately not transient.
func IsTransient(err error) bool {
	return errors.Is(err, ErrTimeout) ||
		errors.Is(err, ErrQPError) ||
		errors.Is(err, ErrServerDown)
}

// Reconnector is implemented by endpoints that can tear down and
// re-establish the queue pair to one server after an ErrQPError. Reconnect
// returns nil when the new QP is usable, ErrServerDown while the server is
// unreachable (retry later), and ErrServerLost when the server came back
// without its registered region.
type Reconnector interface {
	Reconnect(server int) error
}
