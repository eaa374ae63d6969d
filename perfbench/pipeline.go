package main

import (
	"bytes"
	"context"
	"fmt"

	"stopwatchsim/internal/config"
	"stopwatchsim/internal/model"
	"stopwatchsim/internal/nsa"
	"stopwatchsim/internal/obs"
	"stopwatchsim/internal/trace"
)

// verdict is what one interpretation of a configuration decided, with
// the exact counts the output checks compare.
type verdict struct {
	Schedulable bool
	Jobs        int
	Late        int
	Actions     int
	Delays      int
}

// parseConfig is the config layer of one op: parse, which validates. A
// traced op also times a separate Validate call, sizing the validation
// inside parsing, and Fingerprint, which the service computes on every
// request.
func parseConfig(t *opTrace, body []byte, isJSON bool) (*config.System, error) {
	var sys *config.System
	err := t.time("config.parse_ms", func() (err error) {
		if isJSON {
			sys, err = config.ReadJSON(bytes.NewReader(body))
		} else {
			sys, err = config.ReadXML(bytes.NewReader(body))
		}
		return err
	})
	if err != nil || t == nil {
		return sys, err
	}
	if err := t.time("config.validate_ms", sys.Validate); err != nil {
		return nil, err
	}
	err = t.time("config.fingerprint_ms", func() error {
		if sys.Fingerprint() == "" {
			return fmt.Errorf("empty fingerprint for %s", sys.Name)
		}
		return nil
	})
	return sys, err
}

// buildModel is the model layer: Algorithm 1's network construction. A
// traced op then rebuilds the network's interpretation index and compiled
// form with Reindex, the part of Build that sizes the double build.
func buildModel(t *opTrace, sys *config.System) (*model.Model, error) {
	var m *model.Model
	err := t.timeAlloc("model.build_ms", "model.build_alloc_mb", func() (err error) {
		m, err = model.Build(sys)
		return err
	})
	if err != nil || t == nil {
		return m, err
	}
	err = t.time("nsa.reindex_ms", func() error {
		m.Net.Reindex()
		return nil
	})
	return m, err
}

// interpret runs one interpretation of the model and checks the trace
// against the schedulability criterion: the nsa and trace layers. The
// zero backend is the library default.
func interpret(ctx context.Context, t *opTrace, sys *config.System, m *model.Model, backend nsa.Backend) (verdict, error) {
	opts := nsa.Options{Backend: backend}
	if t != nil {
		opts.Probe = &obs.Probe{}
	}
	var (
		tr  *trace.Trace
		res nsa.Result
		a   *trace.Analysis
	)
	err := t.timeAlloc("nsa.run_ms", "nsa.run_alloc_mb", func() (err error) {
		tr, res, err = m.SimulateEngine(ctx, opts)
		return err
	})
	if err != nil {
		return verdict{}, err
	}
	if err := t.time("trace.analyze_ms", func() (err error) {
		a, err = trace.Analyze(sys, tr)
		return err
	}); err != nil {
		return verdict{}, err
	}
	if t != nil {
		c := opts.Probe.Snapshot()
		t.set("nsa.actions", float64(res.Actions))
		t.set("nsa.delays", float64(res.Delays))
		t.set("nsa.guard_evals", float64(c.GuardEvals))
		if c.GuardEvals > 0 {
			t.set("nsa.guard_opaque_frac", float64(c.GuardOpaque)/float64(c.GuardEvals))
		}
		if res.Actions > 0 {
			t.set("nsa.ns_per_action", t.Timed["nsa.run_ms"]*1e6/float64(res.Actions))
		}
	}
	return verdict{
		Schedulable: a.Schedulable,
		Jobs:        len(a.Jobs),
		Late:        len(a.Unschedulable),
		Actions:     res.Actions,
		Delays:      res.Delays,
	}, nil
}

// analyzeConfig is the paper's pipeline on a configuration's bytes:
// parse → model.Build → one interpretation → trace.Analyze.
func analyzeConfig(ctx context.Context, t *opTrace, body []byte, isJSON bool, backend nsa.Backend) (verdict, error) {
	sys, err := parseConfig(t, body, isJSON)
	if err != nil {
		return verdict{}, err
	}
	m, err := buildModel(t, sys)
	if err != nil {
		return verdict{}, err
	}
	return interpret(ctx, t, sys, m, backend)
}
