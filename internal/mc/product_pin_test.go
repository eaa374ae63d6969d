package mc_test

import (
	"testing"

	"stopwatchsim/internal/gen"
	"stopwatchsim/internal/mc"
	"stopwatchsim/internal/model"
	"stopwatchsim/internal/observer"
)

// TestObserverProductPinnedCounts pins one observer product whose monitor
// vectors split network states: with the §3 observer library composed in,
// gen.Random seed 4 has 473 product states against 341 bare ones, so a
// visited-set key that dropped the monitor vectors would merge them.
func TestObserverProductPinnedCounts(t *testing.T) {
	sys := gen.Random(4, gen.DefaultRandomParams())
	m := model.MustBuild(sys)
	bare, err := mc.Explore(m.Net, mc.Options{Horizon: m.Horizon})
	if err != nil {
		t.Fatal(err)
	}
	if bare.States != 341 || bare.Transitions != 617 || bare.Leaves != 1 {
		t.Errorf("bare network: %+v, want 341 states, 617 transitions, 1 leaf", bare)
	}
	bad, res, err := observer.VerifyAllRuns(model.MustBuild(sys), 0)
	if err != nil {
		t.Fatal(err)
	}
	if bad != "" || !res.Complete || res.States != 473 || res.Transitions != 877 || res.Leaves != 2 {
		t.Errorf("observer product: %+v (witness %q), want 473 states, 877 transitions, 2 leaves, no witness", res, bad)
	}
}
