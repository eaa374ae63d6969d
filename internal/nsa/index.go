package nsa

import (
	"sort"

	"stopwatchsim/internal/expr"
	"stopwatchsim/internal/sa"
)

// netIndex is the static dependency index of a network, built once per
// Network and shared by every compiled runtime over it. It inverts guard
// and invariant read sets into variable→reader and clock→reader lists and
// records each edge's write footprint, so the runtime can re-evaluate only
// the automata a fired transition may have affected.
type netIndex struct {
	// clockSensitive[ai][li] is true when some outgoing guard of location li
	// of automaton ai may change truth value under a time advance; the
	// runtime re-evaluates such automata after every delay transition.
	clockSensitive [][]bool

	// varReaders[v] lists (ascending) the automata with a guard or
	// invariant reading variable v somewhere.
	varReaders [][]int32
	// clockReaders[c] lists the automata with a guard, waker or invariant
	// depending on clock c: they must be re-evaluated when c is reset or its
	// rate changes.
	clockReaders [][]int32

	// writeVars[ai][ei] / writeClocks[ai][ei] are the variables and clocks
	// edge ei of automaton ai may assign; writeUnknown marks edges with an
	// opaque update and no declared footprint (firing them dirties every
	// automaton).
	writeVars    [][][]int32
	writeClocks  [][][]int32
	writeUnknown [][]bool

	// alwaysDirty lists automata with some guard or invariant of unknown
	// footprint; the runtime re-evaluates them on every step.
	alwaysDirty []int32
}

// index returns the network's dependency index. Builder.Build constructs
// it eagerly; the lazy fallback covers networks assembled without the builder
// (single-goroutine test helpers only — the fallback is not synchronized).
func (n *Network) index() *netIndex {
	if n.idx == nil {
		n.idx = buildIndex(n)
	}
	return n.idx
}

func buildIndex(n *Network) *netIndex {
	idx := &netIndex{
		clockSensitive: make([][]bool, len(n.Automata)),
		varReaders:     make([][]int32, len(n.Vars)),
		clockReaders:   make([][]int32, len(n.Clocks)),
		writeVars:      make([][][]int32, len(n.Automata)),
		writeClocks:    make([][][]int32, len(n.Automata)),
		writeUnknown:   make([][]bool, len(n.Automata)),
	}
	for ai, a := range n.Automata {
		var readV, readC []int // accumulated read footprint of automaton ai
		unknown := false

		// Per-edge write sets.
		idx.writeVars[ai] = make([][]int32, len(a.Edges))
		idx.writeClocks[ai] = make([][]int32, len(a.Edges))
		idx.writeUnknown[ai] = make([]bool, len(a.Edges))
		for ei := range a.Edges {
			wv, wc, ok := sa.UpdateWrites(a.Edges[ei].Update, nil, nil)
			if !ok {
				idx.writeUnknown[ai][ei] = true
				continue
			}
			idx.writeVars[ai][ei] = sortedUnique32(wv)
			idx.writeClocks[ai][ei] = sortedUnique32(wc)
		}

		// Per-location read footprints and clock sensitivity.
		sens := make([]bool, len(a.Locations))
		idx.clockSensitive[ai] = sens
		for li := range a.Locations {
			if inv := a.Locations[li].Invariant; inv != nil {
				if fi, ok := inv.(*expr.Invariant); ok {
					readV, readC = fi.AppendDeps(readV, readC)
				} else {
					unknown = true
				}
			}
			for _, ei := range a.EdgesFrom(sa.LocID(li)) {
				before := len(readC)
				switch g := a.Edges[ei].Guard.(type) {
				case nil:
					// Trivially true.
				case *sa.ExprGuard:
					readV = expr.Vars(g.Node, readV)
					readC = expr.Clocks(g.Node, readC)
				case *sa.GuardFunc:
					v, c, ok := sa.GuardReads(g, readV, readC)
					readV, readC = v, c
					if !ok {
						unknown = true
					}
					if g.NextEnableF != nil {
						sens[li] = true
					}
				default:
					unknown = true
				}
				if len(readC) > before {
					sens[li] = true
				}
			}
		}

		if unknown {
			idx.alwaysDirty = append(idx.alwaysDirty, int32(ai))
			// An unknown guard or invariant can read anything, including
			// clocks: make the automaton clock-sensitive everywhere so delay
			// transitions also re-evaluate it.
			for li := range sens {
				sens[li] = true
			}
		}
		for _, v := range sortedUnique32(readV) {
			idx.varReaders[v] = append(idx.varReaders[v], int32(ai))
		}
		for _, c := range sortedUnique32(readC) {
			idx.clockReaders[c] = append(idx.clockReaders[c], int32(ai))
		}
	}
	return idx
}

// sortedUnique32 sorts xs, drops duplicates and converts to int32.
func sortedUnique32(xs []int) []int32 {
	if len(xs) == 0 {
		return nil
	}
	sort.Ints(xs)
	out := make([]int32, 0, len(xs))
	for i, x := range xs {
		if i > 0 && x == xs[i-1] {
			continue
		}
		out = append(out, int32(x))
	}
	return out
}
