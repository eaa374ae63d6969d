package mc

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/expr"
	"stopwatchsim/internal/gen"
	"stopwatchsim/internal/model"
	"stopwatchsim/internal/nsa"
	"stopwatchsim/internal/sa"
	"stopwatchsim/internal/xta"
)

// enumSrc is a small XTA net built to reach the Enumerator's corner cases:
// a committed location (Kick.K1), an urgent binary channel (go), a
// broadcast channel whose receivers have two enabled edges in P1 (all, so
// broadcasts expand into cartesian products), and interleavings across
// four automata. enumNet additionally swaps Relay's guard for an opaque
// GuardFunc.
const enumSrc = `
int x = 0;
int y = 0;
urgent chan go;
broadcast chan all;
chan ping;

process Kick() {
    clock t;
    state K0 { t <= 3 }, K1, K2;
    commit K1;
    init K0;
    trans K0 -> K1 { guard t >= 1; sync ping!; assign x := x + 1; },
          K1 -> K2 { sync all!; },
          K2 -> K0 { guard x < 3; assign t := 0; };
}

process Pong(const int id) {
    state P0, P1;
    init P0;
    trans P0 -> P1 { sync ping?; assign y := y + id; },
          P0 -> P0 { sync all?; },
          P1 -> P0 { sync all?; },
          P1 -> P1 { sync all?; assign y := y + 1; },
          P1 -> P0 { sync go!; };
}

process Relay() {
    state R0, R1;
    init R0;
    trans R0 -> R1 { sync go?; assign x := x + 10; },
          R1 -> R0 { guard y > 0; assign y := y - 1; };
}

system Kick(), Pong(1), Pong(2), Relay();
`

// enumNet compiles enumSrc and replaces Relay's R1 -> R0 guard with an
// opaque GuardFunc (no declared footprint), reindexing the network.
func enumNet(t *testing.T) *nsa.Network {
	t.Helper()
	m, err := xta.Compile(enumSrc)
	if err != nil {
		t.Fatal(err)
	}
	net := m.Net
	relay := net.Automata[net.AutomatonIndex("Relay1")]
	y := int(m.Vars["y"])
	replaced := false
	for i := range relay.Edges {
		if e := &relay.Edges[i]; e.Guard != nil {
			e.Guard = &sa.GuardFunc{Desc: "y > 0 (opaque)", F: func(env expr.Env) bool { return env.Var(y) > 0 }}
			replaced = true
		}
	}
	if !replaced {
		t.Fatal("Relay has no guarded edge")
	}
	net.Reindex()
	return net
}

// TestEnumeratorMatchesNaive checks the model checker's enumeration path,
// which runs on the compiled guard tiers, against the naive
// Network.EnabledTransitions oracle: on every state an exhaustive
// exploration reaches, both must return the same transitions (kind,
// channel, participants) in the same order.
func TestEnumeratorMatchesNaive(t *testing.T) {
	quick, err := os.Open("../../examples/quickstart/quickstart.xml")
	if err != nil {
		t.Fatal(err)
	}
	defer quick.Close()
	quickSys, err := config.ReadXML(quick)
	if err != nil {
		t.Fatal(err)
	}
	type enumCase struct {
		name    string
		net     *nsa.Network
		horizon int64
	}
	var cases []enumCase
	for _, c := range []struct {
		name string
		sys  *config.System
	}{{"table1-10", gen.Table1Config(10)}, {"quickstart", quickSys}} {
		m, err := model.Build(c.sys)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cases = append(cases, enumCase{c.name, m.Net, m.Horizon})
	}
	cases = append(cases, enumCase{"xta", enumNet(t), 20})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net := c.net
			en := nsa.NewEnumerator(net)
			var states, committedStates int
			var kinds [3]int // enabled transitions by nsa.TransKind
			bad := func(s *nsa.State) string {
				states++
				got := en.Enabled(s)
				want := net.EnabledTransitions(s, nil)
				if d := diffTransitions(net, got, want); d != "" {
					t.Errorf("t=%d %s: %s", s.Time, net.LocationString(s), d)
					return d
				}
				for i := range want {
					kinds[want[i].Kind]++
				}
				for ai, a := range net.Automata {
					if a.Locations[s.Locs[ai]].Committed {
						committedStates++
						break
					}
				}
				return ""
			}
			res, err := Explore(net, Options{Horizon: c.horizon, BadState: bad})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Complete || res.Bad != "" || states != res.States {
				t.Fatalf("result %+v after %d checked states", res, states)
			}
			t.Logf("%d states, enabled internal/binary/broadcast %v, %d committed", res.States, kinds, committedStates)
			if c.name == "xta" && (kinds[nsa.BinarySync] == 0 || kinds[nsa.Broadcast] == 0 || committedStates == 0) {
				t.Errorf("net missed a corner case: kinds %v, committed states %d", kinds, committedStates)
			}
		})
	}
}

// diffTransitions describes the first difference between two transition
// lists, "" when they are identical.
func diffTransitions(net *nsa.Network, got, want []nsa.Transition) string {
	format := func(ts []nsa.Transition) string {
		parts := make([]string, len(ts))
		for i := range ts {
			parts[i] = fmt.Sprintf("%s %v", ts[i].String(net), ts[i].Parts)
		}
		return "[" + strings.Join(parts, "; ") + "]"
	}
	same := len(got) == len(want)
	for i := 0; same && i < len(want); i++ {
		g, w := &got[i], &want[i]
		same = g.Kind == w.Kind && g.Chan == w.Chan && len(g.Parts) == len(w.Parts)
		for j := 0; same && j < len(w.Parts); j++ {
			same = g.Parts[j] == w.Parts[j]
		}
	}
	if same {
		return ""
	}
	return fmt.Sprintf("enumerator %s, naive %s", format(got), format(want))
}

// TestExploreGuardPanicIsSemanticsError drives an expression-guard panic
// through the explorer's recover boundary: the bytecode guard 10 / x > 0
// becomes reachable at t = 2 with x == 0, and Explore must return a
// *nsa.SemanticsError instead of panicking.
func TestExploreGuardPanicIsSemanticsError(t *testing.T) {
	m, err := xta.Compile(`
int x = 1;
process A() {
    clock t;
    state L0 { t <= 2 }, L1, L2;
    init L0;
    trans L0 -> L1 { guard t == 2; assign x := 0; },
          L1 -> L2 { guard 10 / x > 0; };
}
system A();
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Explore(m.Net, Options{Horizon: 10})
	var se *nsa.SemanticsError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *nsa.SemanticsError", err)
	}
	if se.Time != 2 || !strings.Contains(se.Msg, "division by zero") {
		t.Errorf("err = %v, want division by zero at t=2", err)
	}
	if res.Complete {
		t.Error("a failed exploration must not report Complete")
	}
}
