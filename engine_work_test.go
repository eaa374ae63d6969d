package stopwatchsim

import (
	"context"
	"testing"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/gen"
	"stopwatchsim/internal/model"
	"stopwatchsim/internal/nsa"
	"stopwatchsim/internal/obs"
)

// engineWork is the part of the probe's counters TestEngineExactWork pins.
type engineWork struct {
	Actions, Delays, GuardEvals, EnabledCalls, GuardOpaque int64
}

// TestEngineExactWork pins the work one compiled interpretation does on the
// paper's §4 instance and on Table 1 at 13 jobs, counted by the engine
// probe. The counts do not depend on the machine, so a change that makes
// the engine do more work fails here without a clock. GuardEvals moves
// only when a guard's read footprint does, because the dirty tracking then
// re-evaluates different edges.
//
// GuardOpaque was 196,420 (industrial) and 154 (Table 1) while the model
// library wrote its straight-line guards as Go functions. On the §4
// instance those guards took 39,105 opaque evaluations: all_data_ready
// 13,500, its negation 500, last_finished == cur 12,505, its negation
// 12,505, and PreSleep's cur == k 95. As expressions they are compiled,
// and every other count stayed the same.
func TestEngineExactWork(t *testing.T) {
	cases := []struct {
		name string
		sys  *config.System
		want engineWork
	}{
		{"industrial", gen.IndustrialConfig(), engineWork{
			Actions: 81140, Delays: 2550, GuardEvals: 1771650, EnabledCalls: 83691,
			GuardOpaque: 157315,
		}},
		{"table1-13", gen.Table1Config(13), engineWork{
			Actions: 90, Delays: 12, GuardEvals: 669, EnabledCalls: 103,
			GuardOpaque: 128,
		}},
	}
	for _, c := range cases {
		m, err := model.Build(c.sys)
		if err != nil {
			t.Fatalf("%s: build: %v", c.name, err)
		}
		probe := &obs.Probe{}
		if _, _, err := m.SimulateEngine(context.Background(), nsa.Options{Probe: probe}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s := probe.Snapshot()
		got := engineWork{s.Actions, s.Delays, s.GuardEvals, s.EnabledCalls, s.GuardOpaque}
		if got != c.want {
			t.Errorf("%s: %+v, want %+v", c.name, got, c.want)
		}
	}
}
