package stopwatchsim

import (
	"fmt"
	"math/rand"
	"testing"

	"stopwatchsim/internal/expr"
	"stopwatchsim/internal/gen"
	"stopwatchsim/internal/mc"
	"stopwatchsim/internal/model"
	"stopwatchsim/internal/nsa"
	"stopwatchsim/internal/observer"
	"stopwatchsim/internal/trace"
	"stopwatchsim/internal/xta"
)

// --- Table 1: Model Checking vs the proposed approach -----------------
//
// The bench range stops at 14 jobs to keep `go test -bench=.` tolerable;
// cmd/benchtable -table1 regenerates the full 10–18 row range. The paper's
// shape — MC roughly doubles per job, simulation flat — is visible either
// way.

func BenchmarkTable1_ModelChecking(b *testing.B) {
	for jobs := 10; jobs <= 14; jobs++ {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			sys := gen.Table1Config(jobs)
			m, err := model.Build(sys)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, _, err := mc.CheckSchedulability(m, 0)
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					b.Fatal("table1 config must be schedulable")
				}
			}
		})
	}
}

func BenchmarkTable1_ProposedApproach(b *testing.B) {
	// Model construction is hoisted out of the timed loop: the benchmark
	// measures interpretation + trace analysis (BenchmarkModelBuild covers
	// construction separately).
	for jobs := 10; jobs <= 18; jobs++ {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			sys := gen.Table1Config(jobs)
			m, err := model.Build(sys)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr, _, err := m.Simulate()
				if err != nil {
					b.Fatal(err)
				}
				a, err := trace.Analyze(sys, tr)
				if err != nil {
					b.Fatal(err)
				}
				if !a.Schedulable {
					b.Fatal("table1 config must be schedulable")
				}
			}
		})
	}
}

// --- §4 industrial-scale experiment (~12 500 jobs) ---------------------

func BenchmarkIndustrialScale(b *testing.B) {
	sys := gen.IndustrialConfig()
	b.Run("construction", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := model.Build(sys); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("interpretation", func(b *testing.B) {
		m, err := model.Build(sys)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr, _, err := m.Simulate()
			if err != nil {
				b.Fatal(err)
			}
			a, err := trace.Analyze(sys, tr)
			if err != nil {
				b.Fatal(err)
			}
			if !a.Schedulable {
				b.Fatal("industrial config must be schedulable")
			}
		}
	})
}

// --- ablations ----------------------------------------------------------

// BenchmarkAblation_MCDedup quantifies the visited-state de-duplication in
// the model checker: NoDedup walks the full run tree.
func BenchmarkAblation_MCDedup(b *testing.B) {
	// 4 jobs: the raw run tree grows factorially with the number of
	// simultaneous transitions, so only small family members are feasible
	// without de-duplication — which is exactly the point of the ablation.
	sys := gen.Table1Config(4)
	for _, mode := range []struct {
		name    string
		noDedup bool
	}{{"dedup", false}, {"runtree", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := model.Build(sys)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := mc.Explore(m.Net, mc.Options{
					Horizon: m.Horizon, NoDedup: mode.noDedup, MaxStates: 50_000_000,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_ObserverOverhead measures the cost of running the full
// §3 observer library alongside a simulation.
func BenchmarkAblation_ObserverOverhead(b *testing.B) {
	sys := gen.Random(5, gen.DefaultRandomParams())
	b.Run("bare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := model.Build(sys)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := m.Simulate(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("observed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := model.Build(sys)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := observer.VerifyRun(m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_Chooser compares the deterministic first-transition
// chooser against seeded random choice (the determinism theorem makes both
// produce equivalent traces; the question is pure engine overhead).
func BenchmarkAblation_Chooser(b *testing.B) {
	sys := gen.Random(9, gen.DefaultRandomParams())
	b.Run("first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := model.Build(sys)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := m.SimulateWith(nsa.FirstChooser{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := model.Build(sys)
			if err != nil {
				b.Fatal(err)
			}
			ch := nsa.RandomChooser{Rng: rand.New(rand.NewSource(int64(i)))}
			if _, _, err := m.SimulateWith(ch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- component micro-benchmarks -----------------------------------------

func BenchmarkExprEval(b *testing.B) {
	sc := expr.MapScope{
		"x": {Kind: expr.SymVar, Index: 0},
		"t": {Kind: expr.SymClock, Index: 0},
	}
	n := expr.MustParseResolve("t <= 10 && x * 3 + 1 > 2", sc, expr.TypeBool)
	env := benchEnv{vars: []int64{4}, clocks: []int64{5}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !n.EvalBool(env) {
			b.Fatal("expected true")
		}
	}
}

type benchEnv struct {
	vars   []int64
	clocks []int64
}

func (e benchEnv) Var(i int) int64   { return e.vars[i] }
func (e benchEnv) Clock(i int) int64 { return e.clocks[i] }

func BenchmarkModelBuild(b *testing.B) {
	sys := gen.IndustrialConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := model.Build(sys); err != nil {
			b.Fatal(err)
		}
	}
}

const benchXTA = `
const int N = 5;
int x = 0;
chan go;
process P(const int k) {
    clock t;
    state A { t <= k }, B;
    init A;
    trans A -> B { guard t == k; sync go!; assign x := x + k; };
}
process Q() {
    state C;
    init C;
    trans C -> C { sync go?; };
}
system P(1), P(2), P(3), Q();
`

func BenchmarkXTACompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := xta.Compile(benchXTA); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	// Actions per second on a mid-size configuration.
	sys := gen.Random(21, gen.RandomParams{
		MaxCores: 2, MaxPartitions: 3, MaxTasks: 3,
		Periods: []int64{20, 40, 80}, MaxUtil: 0.9, Messages: 2,
	})
	m, err := model.Build(sys)
	if err != nil {
		b.Fatal(err)
	}
	probe, _, err := m.Simulate()
	if err != nil {
		b.Fatal(err)
	}

	// Full pipeline per op (engine construction + trace building), as the
	// committed baselines measured it.
	b.Run("pipeline", func(b *testing.B) {
		b.ReportMetric(float64(len(probe.Events)), "events/run")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := m.Simulate(); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Steady state: one persistent engine, Reset+Run per op, no listeners.
	// The compiled backend must report 0 allocs/op here
	// (TestEngineSteadyStateZeroAlloc asserts it).
	b.Run("compiled", func(b *testing.B) {
		eng := nsa.NewEngine(m.Net, nsa.Options{Horizon: m.Horizon})
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Reset()
			if _, err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
