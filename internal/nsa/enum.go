package nsa

import (
	"slices"

	"stopwatchsim/internal/obs"
	"stopwatchsim/internal/sa"
)

// partsArena is a flat backing store for Transition.Parts slices: one
// growing []Part instead of one allocation per transition. Slices handed out
// use full slice expressions so appends by consumers cannot clobber
// neighboring transitions.
type partsArena struct{ buf []Part }

func (a *partsArena) reset() { a.buf = a.buf[:0] }

func (a *partsArena) one(p Part) []Part {
	start := len(a.buf)
	a.buf = append(a.buf, p)
	return a.buf[start : start+1 : start+1]
}

func (a *partsArena) two(p, q Part) []Part {
	start := len(a.buf)
	a.buf = append(a.buf, p, q)
	return a.buf[start : start+2 : start+2]
}

func (a *partsArena) copyOf(ps []Part) []Part {
	start := len(a.buf)
	a.buf = append(a.buf, ps...)
	end := len(a.buf)
	return a.buf[start:end:end]
}

// chanLists buckets the guard-enabled synchronization halves of one state
// per channel. The per-channel slices are reused across states; touched
// tracks which channels hold entries so reset is proportional to activity,
// not to the channel count.
type chanLists struct {
	sends, recvs [][]half
	touched      []sa.ChanID // channels with at least one half this state
	urgent       []sa.ChanID // the urgent channels among touched
	groups       [][]half    // scratch for broadcast receiver grouping
	combo        []Part      // scratch for broadcast combination expansion
}

func newChanLists(nchans int) *chanLists {
	return &chanLists{sends: make([][]half, nchans), recvs: make([][]half, nchans)}
}

func (c *chanLists) reset() {
	for _, ch := range c.touched {
		c.sends[ch] = c.sends[ch][:0]
		c.recvs[ch] = c.recvs[ch][:0]
	}
	c.touched = c.touched[:0]
	c.urgent = c.urgent[:0]
}

func (c *chanLists) touch(n *Network, ch sa.ChanID) {
	if len(c.sends[ch]) == 0 && len(c.recvs[ch]) == 0 {
		c.touched = append(c.touched, ch)
		if n.Chans[ch].Urgent {
			c.urgent = append(c.urgent, ch)
		}
	}
}

func (c *chanLists) addSend(n *Network, ch sa.ChanID, h half) {
	c.touch(n, ch)
	c.sends[ch] = append(c.sends[ch], h)
}

func (c *chanLists) addRecv(n *Network, ch sa.ChanID, h half) {
	c.touch(n, ch)
	c.recvs[ch] = append(c.recvs[ch], h)
}

// emitSyncs appends the binary and broadcast synchronizations derivable from
// cl, replicating the canonical order of enabledTransitionsRaw exactly:
// binary channels in ascending channel order with sender-major (aut, edge)
// pairs, then broadcast channels with the cartesian product of per-receiver-
// automaton edge choices. Per-channel half lists must be sorted by
// (aut, edge); callers guarantee that by adding halves in ascending automaton
// scan order with edges ascending within an automaton.
func (n *Network) emitSyncs(buf []Transition, s *State, cl *chanLists, committed bool, arena *partsArena) []Transition {
	slices.Sort(cl.touched)
	for _, ch := range cl.touched {
		if n.Chans[ch].Broadcast {
			continue
		}
		for _, snd := range cl.sends[ch] {
			for _, rcv := range cl.recvs[ch] {
				if rcv.aut == snd.aut {
					continue
				}
				if committed && !n.committedAt(s, snd.aut) && !n.committedAt(s, rcv.aut) {
					continue
				}
				buf = append(buf, Transition{
					Kind:  BinarySync,
					Chan:  ch,
					Parts: arena.two(Part{snd.aut, snd.edge}, Part{rcv.aut, rcv.edge}),
				})
			}
		}
	}
	for _, ch := range cl.touched {
		if !n.Chans[ch].Broadcast {
			continue
		}
		for _, snd := range cl.sends[ch] {
			// Group enabled receive edges by automaton, excluding the sender.
			// Groups are contiguous subslices of the sorted receiver list.
			cl.groups = cl.groups[:0]
			committedOK := !committed || n.committedAt(s, snd.aut)
			recvs := cl.recvs[ch]
			for lo := 0; lo < len(recvs); {
				hi := lo + 1
				for hi < len(recvs) && recvs[hi].aut == recvs[lo].aut {
					hi++
				}
				if recvs[lo].aut != snd.aut {
					cl.groups = append(cl.groups, recvs[lo:hi])
					if committed && n.committedAt(s, recvs[lo].aut) {
						committedOK = true
					}
				}
				lo = hi
			}
			if !committedOK {
				continue
			}
			buf = n.emitBroadcastCombos(buf, ch, Part{snd.aut, snd.edge}, cl, arena)
		}
	}
	return buf
}

// emitBroadcastCombos expands the cartesian product of per-automaton receive
// choices in cl.groups, allocating Parts from the arena.
func (n *Network) emitBroadcastCombos(buf []Transition, ch sa.ChanID, snd Part, cl *chanLists, arena *partsArena) []Transition {
	cl.combo = append(cl.combo[:0], snd)
	var rec func(i int)
	rec = func(i int) {
		if i == len(cl.groups) {
			buf = append(buf, Transition{Kind: Broadcast, Chan: ch, Parts: arena.copyOf(cl.combo)})
			return
		}
		for _, h := range cl.groups[i] {
			cl.combo = append(cl.combo, Part{h.aut, h.edge})
			rec(i + 1)
			cl.combo = cl.combo[:len(cl.combo)-1]
		}
	}
	rec(0)
	return buf
}

// Enumerator computes the enabled transitions of arbitrary states of one
// network through its compiled form (the compiledNet the engine's runtime
// executes): per-location edges come pre-classified by channel and
// direction with tiered guards, so a call costs the enabled halves of the
// current locations rather than a full Sync-label scan with per-state map
// allocations. Unlike the engine runtime it keeps no cross-state caches, so
// states may be presented in any order — this is the model checker's
// enumeration path.
//
// Returned transitions and their Parts are freshly allocated per call and
// may be retained indefinitely by the caller. An Enumerator is not safe for
// concurrent use.
type Enumerator struct {
	net  *Network
	cn   *compiledNet
	cl   *chanLists
	env  stateEnv
	regs []int64 // bytecode scratch (cn.maxRegs)

	// Probe, when non-nil, counts enabled-set queries and guard
	// evaluations by tier (the exploration analogue of the engine's
	// hot-path probe). Set it before the first Enabled call.
	Probe *obs.Probe
}

// NewEnumerator returns an enumerator over net.
func NewEnumerator(net *Network) *Enumerator {
	cn := net.compiled()
	return &Enumerator{net: net, cn: cn, cl: newChanLists(len(net.Chans)), regs: make([]int64, cn.maxRegs)}
}

// Enabled returns the enabled transitions of s in the same canonical order,
// and with the same committed-location and process-priority filters, as
// Network.EnabledTransitions.
func (en *Enumerator) Enabled(s *State) []Transition {
	n, cn := en.net, en.cn
	en.env.n = n
	en.env.s = s
	committed := n.anyCommitted(s)
	en.cl.reset()
	var arena partsArena // fresh per call: results are retained by callers
	var buf []Transition
	vars, clocks := s.Vars, s.Clocks
	counting := en.Probe != nil
	var evals, bytecode, opaque int64
	for ai := range n.Automata {
		c := cn.loc(int32(ai), s)
		for i := range c.edges {
			ce := &c.edges[i]
			if ce.dir == sa.NoSync && committed && !c.committed {
				continue
			}
			if counting {
				evals++
				switch ce.gkind {
				case gVarCmpK, gClockCmpK, gCmpList, gProg:
					bytecode++
				case gOpaque:
					opaque++
				}
			}
			if !cn.evalGuard(ce, vars, clocks, en.regs, &en.env) {
				continue
			}
			switch ce.dir {
			case sa.NoSync:
				buf = append(buf, Transition{Kind: Internal, Chan: sa.NoChan, Parts: arena.one(Part{ai, int(ce.edge)})})
			case sa.Send:
				en.cl.addSend(n, ce.ch, half{ai, int(ce.edge)})
			case sa.Recv:
				en.cl.addRecv(n, ce.ch, half{ai, int(ce.edge)})
			}
		}
	}
	buf = n.emitSyncs(buf, s, en.cl, committed, &arena)
	if p := en.Probe; p != nil {
		p.EnabledCalls.Add(1)
		p.GuardEvals.Add(evals)
		p.GuardCompiled.Add(evals - opaque)
		p.GuardBytecode.Add(bytecode)
		p.GuardOpaque.Add(opaque)
	}
	return n.filterPriority(buf)
}
