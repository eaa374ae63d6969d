package nsa

import (
	"bytes"
	"log/slog"
	"testing"

	"stopwatchsim/internal/obs"
)

// TestEngineProbeConsistency runs a probed interpretation and checks the
// counters' internal invariants: steps split exactly into actions and
// delays, actions split exactly by synchronization kind, and the indexed
// runtime reported guard and cache activity.
func TestEngineProbeConsistency(t *testing.T) {
	net, done := pingPong(t, 5, false)
	probe := &obs.Probe{}
	eng := NewEngine(net, Options{Horizon: 20, Probe: probe})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v := eng.State().Vars[done]; v != 1 {
		t.Fatalf("done = %d, want 1", v)
	}
	c := probe.Snapshot()
	if c.Steps == 0 {
		t.Fatal("probed run recorded zero steps")
	}
	if c.Steps != c.Actions+c.Delays {
		t.Errorf("Steps %d != Actions %d + Delays %d", c.Steps, c.Actions, c.Delays)
	}
	if got := int64(res.Actions); c.Actions != got {
		t.Errorf("probe Actions %d != result Actions %d", c.Actions, got)
	}
	if got := int64(res.Delays); c.Delays != got {
		t.Errorf("probe Delays %d != result Delays %d", c.Delays, got)
	}
	if sum := c.SyncInternal + c.SyncBinary + c.SyncBroadcast; sum != c.Actions {
		t.Errorf("sync kinds sum %d != Actions %d", sum, c.Actions)
	}
	if c.SyncBinary == 0 {
		t.Error("ping-pong run fired no binary syncs")
	}
	if c.GuardEvals == 0 || c.EnabledCalls == 0 {
		t.Errorf("runtime activity missing: guard_evals=%d enabled_calls=%d", c.GuardEvals, c.EnabledCalls)
	}
	if c.GuardCompiled+c.GuardOpaque > c.GuardEvals {
		t.Errorf("guard split %d+%d exceeds total %d", c.GuardCompiled, c.GuardOpaque, c.GuardEvals)
	}
	if c.DirtyMax > 0 && c.DirtyTotal < c.DirtyMax {
		t.Errorf("DirtyTotal %d < DirtyMax %d", c.DirtyTotal, c.DirtyMax)
	}
}

// TestEngineProbeEnumeratorPath checks the naive/checking path counts
// through the Enumerator probe too.
func TestEngineProbeEnumeratorPath(t *testing.T) {
	net, _ := pingPong(t, 3, false)
	probe := &obs.Probe{}
	en := NewEnumerator(net)
	en.Probe = probe
	en.Enabled(net.InitialState(), nil, nil)
	c := probe.Snapshot()
	if c.EnabledCalls != 1 {
		t.Errorf("EnabledCalls = %d, want 1", c.EnabledCalls)
	}
	if c.GuardEvals == 0 {
		t.Error("Enumerator counted no guard evaluations")
	}
}

// TestEngineDebugLogReproducesChoice checks the per-step debug log carries
// the chooser seed and chosen candidate index, the reproducibility
// contract for -check-engine divergences.
func TestEngineDebugLogReproducesChoice(t *testing.T) {
	net, _ := pingPong(t, 2, false)
	var buf bytes.Buffer
	lg := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	eng := NewEngine(net, Options{Horizon: 10, Chooser: NewRandomChooser(99), Logger: lg})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !bytes.Contains(buf.Bytes(), []byte("chooser_seed=99")) {
		t.Errorf("debug log missing chooser seed:\n%s", out)
	}
	if !bytes.Contains(buf.Bytes(), []byte("choice=")) {
		t.Errorf("debug log missing chosen candidate index:\n%s", out)
	}
	if !bytes.Contains(buf.Bytes(), []byte("msg=fire")) || !bytes.Contains(buf.Bytes(), []byte("msg=delay")) {
		t.Errorf("debug log missing fire/delay records:\n%s", out)
	}
}

// TestEngineNoProbeNoLogger pins that a run with telemetry disabled still
// works and the engine result matches a probed run (instrumentation must
// not perturb semantics).
func TestEngineNoProbeNoLogger(t *testing.T) {
	netA, _ := pingPong(t, 5, false)
	netB, _ := pingPong(t, 5, false)
	probe := &obs.Probe{}
	plain := NewEngine(netA, Options{Horizon: 20})
	probed := NewEngine(netB, Options{Horizon: 20, Probe: probe})
	resPlain, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	resProbed, err := probed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resPlain != resProbed {
		t.Errorf("probed result %+v != plain result %+v", resProbed, resPlain)
	}
}
