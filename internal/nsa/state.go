package nsa

import (
	"encoding/binary"
	"fmt"

	"stopwatchsim/internal/expr"
	"stopwatchsim/internal/sa"
)

// State is a configuration of a network: the location vector, clock and
// variable valuations, and the model time (the special clock that is never
// stopped or reset).
type State struct {
	Locs   []sa.LocID
	Clocks []int64
	Vars   []int64
	Time   int64
}

// InitialState returns the network's initial state: initial locations, all
// clocks zero, variables at their declared initial values, time zero.
func (n *Network) InitialState() *State {
	s := &State{
		Locs:   make([]sa.LocID, len(n.Automata)),
		Clocks: make([]int64, len(n.Clocks)),
		Vars:   make([]int64, len(n.Vars)),
	}
	for i, a := range n.Automata {
		s.Locs[i] = a.Initial
	}
	for i, v := range n.Vars {
		s.Vars[i] = v.Init
	}
	return s
}

// Clone returns a deep copy of s.
func (s *State) Clone() *State {
	c := &State{
		Locs:   make([]sa.LocID, len(s.Locs)),
		Clocks: make([]int64, len(s.Clocks)),
		Vars:   make([]int64, len(s.Vars)),
		Time:   s.Time,
	}
	copy(c.Locs, s.Locs)
	copy(c.Clocks, s.Clocks)
	copy(c.Vars, s.Vars)
	return c
}

// AppendKey appends a canonical binary encoding of s to buf and returns the
// result; equal states yield equal keys. Used by the engine's exact-key
// livelock probe.
func (s *State) AppendKey(buf []byte) []byte {
	var tmp [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(tmp[:], uint64(v))
		buf = append(buf, tmp[:]...)
	}
	for _, l := range s.Locs {
		put(int64(l))
	}
	for _, c := range s.Clocks {
		put(c)
	}
	for _, v := range s.Vars {
		put(v)
	}
	put(s.Time)
	return buf
}

// Env returns a mutable expression environment over s that enforces the
// network's declared variable bounds. The environment panics with
// *expr.RuntimeError on a domain violation; Engine.Run and the model checker
// convert the panic into an error.
func (n *Network) Env(s *State) expr.MutableEnv {
	return &stateEnv{n: n, s: s}
}

type stateEnv struct {
	n *Network
	s *State
}

func (e *stateEnv) Var(i int) int64   { return e.s.Vars[i] }
func (e *stateEnv) Clock(i int) int64 { return e.s.Clocks[i] }

func (e *stateEnv) SetVar(i int, v int64) {
	d := &e.n.Vars[i]
	if d.HasBounds && (v < d.Min || v > d.Max) {
		panic(expr.DomainError(v, d.Min, d.Max, d.Name))
	}
	e.s.Vars[i] = v
}

func (e *stateEnv) SetClock(i int, v int64) { e.s.Clocks[i] = v }

// StoppedClocks fills stopped (len == #clocks) with true for every clock
// stopped by some automaton's current location, and returns it.
func (n *Network) StoppedClocks(s *State, stopped []bool) []bool {
	if stopped == nil {
		stopped = make([]bool, len(n.Clocks))
	} else {
		for i := range stopped {
			stopped[i] = false
		}
	}
	for ai, a := range n.Automata {
		for _, c := range a.Locations[s.Locs[ai]].Stopped {
			stopped[c] = true
		}
	}
	return stopped
}

// LocationString renders the location vector for diagnostics.
func (n *Network) LocationString(s *State) string {
	out := ""
	for i, a := range n.Automata {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s.%s", a.Name, a.LocationName(s.Locs[i]))
	}
	return out
}
