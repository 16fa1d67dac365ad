package main

import (
	"fmt"
	"sort"

	"github.com/namdb/rdmatree/internal/core"
)

// checker verifies the program's outputs against the bulk-loaded data set
// (key k holds value k for every k < D) and remembers every acknowledged
// insert so it can be read back after the run.
type checker struct {
	d     uint64
	acks  map[uint64][]uint64
	nacks int64
}

func newChecker(d uint64) *checker {
	return &checker{d: d, acks: make(map[uint64][]uint64)}
}

// point reports whether a lookup of key returned its preloaded value.
func (c *checker) point(key uint64, vals []uint64) bool {
	if key >= c.d {
		return true
	}
	for _, v := range vals {
		if v == key {
			return true
		}
	}
	return false
}

// acked records an acknowledged insert.
func (c *checker) acked(key, val uint64) {
	c.acks[key] = append(c.acks[key], val)
	c.nacks++
}

// scanCheck verifies one range scan as it streams: keys ascend, stay inside
// [lo, hi], and every preloaded key of the range is emitted with its value.
type scanCheck struct {
	lo, hi uint64
	last   uint64
	bad    bool
	seen   []bool
	nseen  int
	want   int
}

// scan starts checking a scan of [lo, hi]; scans of different clients
// interleave, so each gets its own state.
func (c *checker) scan(lo, hi uint64) *scanCheck {
	sc := &scanCheck{lo: lo, hi: hi, last: lo}
	top := hi
	if top >= c.d {
		top = c.d - 1
	}
	if lo <= top {
		sc.want = int(top - lo + 1)
		sc.seen = make([]bool, sc.want)
	}
	return sc
}

func (s *scanCheck) emit(k, v uint64) bool {
	if k < s.lo || k > s.hi || k < s.last {
		s.bad = true
		return false
	}
	s.last = k
	if v == k && int(k-s.lo) < len(s.seen) && !s.seen[k-s.lo] {
		s.seen[k-s.lo] = true
		s.nseen++
	}
	return true
}

func (s *scanCheck) ok() bool { return !s.bad && s.nseen == s.want }

// readBack looks every acknowledged insert up through idx and counts each
// missing value as a failed operation.
func (c *checker) readBack(idx core.Index, r *runResult) {
	keys := make([]uint64, 0, len(c.acks))
	for k := range c.acks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		vals, err := idx.Lookup(k)
		if err != nil {
			r.fail(fmt.Sprintf("read-back of key %d: %v", k, err))
			continue
		}
		have := make(map[uint64]bool, len(vals))
		for _, v := range vals {
			have[v] = true
		}
		for _, v := range c.acks[k] {
			if !have[v] {
				r.fail(fmt.Sprintf("acked insert (%d, %d) missing after the run", k, v))
			}
		}
	}
}
