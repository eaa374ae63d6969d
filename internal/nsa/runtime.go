package nsa

import (
	"sort"

	"stopwatchsim/internal/sa"
)

// This file holds the incremental bookkeeping structures of the compiled
// runtime (compiled.go).

// halfRef is a cached enabled synchronization half of one automaton: the
// edge index and the channel it synchronizes on.
type halfRef struct {
	edge int32
	ch   sa.ChanID
}

// autSet is a sorted set of automaton indices with O(1) membership tests,
// iterated in ascending order (the canonical enumeration order).
type autSet struct {
	list   []int32
	member []bool
}

func newAutSet(n int) autSet { return autSet{member: make([]bool, n)} }

func (s *autSet) insert(ai int32) {
	if s.member[ai] {
		return
	}
	s.member[ai] = true
	i := sort.Search(len(s.list), func(i int) bool { return s.list[i] >= ai })
	s.list = append(s.list, 0)
	copy(s.list[i+1:], s.list[i:])
	s.list[i] = ai
}

func (s *autSet) remove(ai int32) {
	if !s.member[ai] {
		return
	}
	s.member[ai] = false
	i := sort.Search(len(s.list), func(i int) bool { return s.list[i] >= ai })
	s.list = append(s.list[:i], s.list[i+1:]...)
}

func (s *autSet) clear() {
	for _, ai := range s.list {
		s.member[ai] = false
	}
	s.list = s.list[:0]
}

// heapEntry is a pending deadline of one automaton in absolute model time.
// Entries are invalidated lazily: gen must match the automaton's current
// generation to count.
type heapEntry struct {
	abs int64
	aut int32
	gen uint32
}

// timeHeap is a min-heap of absolute deadlines with generation-based lazy
// deletion: superseded entries stay in the heap until they surface at the
// top (min) or a wholesale compaction removes them. pops and stale count
// those two flavours of lazy deletion for the probe; the runtime drains
// them in flushStats (plain int64s: a heap belongs to one runtime).
type timeHeap struct {
	e           []heapEntry
	pops, stale int64
}

func (h *timeHeap) push(abs int64, aut int32, gen uint32) {
	h.e = append(h.e, heapEntry{abs, aut, gen})
	i := len(h.e) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.e[p].abs <= h.e[i].abs {
			break
		}
		h.e[p], h.e[i] = h.e[i], h.e[p]
		i = p
	}
}

func (h *timeHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h.e) && h.e[l].abs < h.e[m].abs {
			m = l
		}
		if r < len(h.e) && h.e[r].abs < h.e[m].abs {
			m = r
		}
		if m == i {
			return
		}
		h.e[i], h.e[m] = h.e[m], h.e[i]
		i = m
	}
}

func (h *timeHeap) pop() {
	last := len(h.e) - 1
	h.e[0] = h.e[last]
	h.e = h.e[:last]
	if last > 0 {
		h.down(0)
	}
}

// min drops stale (superseded-generation) entries from the top and returns
// the smallest valid absolute deadline.
func (h *timeHeap) min(gens []uint32) (int64, bool) {
	for len(h.e) > 0 {
		top := h.e[0]
		if gens[top.aut] == top.gen {
			return top.abs, true
		}
		h.pop()
		h.pops++
	}
	return 0, false
}

// minEntry is min also reporting which automaton owns the top entry, for
// callers that react to a surfaced deadline by recomputing its owner (the
// runtime's stale-wake reconciliation).
func (h *timeHeap) minEntry(gens []uint32) (int64, int32, bool) {
	for len(h.e) > 0 {
		top := h.e[0]
		if gens[top.aut] == top.gen {
			return top.abs, top.aut, true
		}
		h.pop()
		h.pops++
	}
	return 0, 0, false
}

// compact removes stale entries wholesale and re-heapifies. Each automaton
// contributes at most one valid entry per heap, so compaction bounds the heap
// at the automaton count between growth bursts.
func (h *timeHeap) compact(gens []uint32) {
	keep := h.e[:0]
	before := len(h.e)
	for _, en := range h.e {
		if gens[en.aut] == en.gen {
			keep = append(keep, en)
		}
	}
	h.e = keep
	h.stale += int64(before - len(h.e))
	for i := len(h.e)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}
