package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"stopwatchsim/internal/campaign"
	"stopwatchsim/internal/compose"
	"stopwatchsim/internal/config"
	"stopwatchsim/internal/gen"
	"stopwatchsim/internal/jobs"
	"stopwatchsim/internal/store"
	"stopwatchsim/internal/synth"
)

// Committed synthesis inputs: the 2-D generic-EDF space and its golden
// region (89 engine runs on a cold store).
const (
	synthSpaceFile  = "examples/imi/generic-edf-synth.json"
	synthBaseFile   = "examples/imi/generic-edf.xml"
	synthGoldenFile = "examples/imi/generic-edf-region.golden.json"
)

// composeModules is the module count of the compose exploration.
const composeModules = 16

// exploreInputs are the bytes one explore op hands to the explorers.
type exploreInputs struct {
	space, spaceBase, golden []byte
	campSpec, campBase       []byte
	chain, chainEdit         []byte
}

// exploreInput generates the seeded inputs: a random base configuration
// of fixed shape whose WCETs a campaign grid scales, and a 16-module chain
// plus a copy with one module's background load edited. The synthesis
// space and its golden region are the committed examples.
func exploreInput(root string, seed int64) (*exploreInputs, error) {
	in := &exploreInputs{}
	for _, f := range []struct {
		dst  *[]byte
		path string
	}{{&in.space, synthSpaceFile}, {&in.spaceBase, synthBaseFile}, {&in.golden, synthGoldenFile}} {
		b, err := os.ReadFile(filepath.Join(root, f.path))
		if err != nil {
			return nil, err
		}
		*f.dst = b
	}
	var err error
	if in.campBase, err = xmlBytes(campaignBase(seed)); err != nil {
		return nil, err
	}
	spec := campaign.Spec{
		Name:     fmt.Sprintf("perfbench-grid-%d", seed),
		Strategy: campaign.StrategyGrid,
		Axes:     []campaign.Axis{campaignAxis},
	}
	if in.campSpec, err = json.Marshal(spec); err != nil {
		return nil, err
	}
	chain := gen.MultiModule(composeModules, seed)
	if in.chain, err = xmlBytes(chain); err != nil {
		return nil, err
	}
	// The edit flips one module's background-load WCET between 1 and 2:
	// contracts derive from sender parameters only, so exactly that
	// module's fingerprint changes.
	edit := int(uint64(seed) % composeModules)
	load := &chain.Partitions[edit].Tasks[1]
	load.WCET[0] = 3 - load.WCET[0]
	if in.chainEdit, err = xmlBytes(chain); err != nil {
		return nil, err
	}
	return in, nil
}

// campaignAxis is the campaign grid: every WCET scaled from 50% to 250%
// of the base's in steps of 10, 21 points.
var campaignAxis = campaign.Axis{Param: campaign.ParamWCETPct, Min: 50, Max: 250, Step: 10}

// The campaign base's shape. gen.Random also draws the number of cores,
// partitions and tasks, and with them the grid's work: over seeds 1-20
// its 21 points took 2.5 to 35 ms run one after another, and the op's
// median ranged over 51-71 ms across seeds 1-10. Scaled WCETs are
// truncated to whole ticks, so points of small WCETs coincide, and the
// pool computes each distinct configuration once and answers the rest
// from its memory cache: with the shape fixed, 150 bases held 5 to 19
// distinct grid configurations, and on seeds 1-3 the campaign took 9.6
// to 18.6 ms of the op. The seed picks the base's content (policies,
// periods, WCETs, deadlines, windows, message ends); its size, near the
// middle of gen.Random's range, and its number of distinct grid points,
// the most common one for that size, are the same for every seed.
const (
	baseCores       = 2
	basePartitions  = 4
	baseTasks       = 8
	baseHyperperiod = 32
	baseMessages    = 2
	baseDistinct    = 17
)

// campaignBase returns the first of a seed's gen.Random candidates that
// has the campaign base's shape and number of distinct grid points; about
// one in 125 has.
func campaignBase(seed int64) *config.System {
	for j := int64(0); ; j++ {
		sys := gen.Random(seed*100_003+j, gen.DefaultRandomParams())
		tasks := 0
		for _, p := range sys.Partitions {
			tasks += len(p.Tasks)
		}
		if len(sys.Cores) == baseCores && len(sys.Partitions) == basePartitions && tasks == baseTasks &&
			sys.Hyperperiod() == baseHyperperiod && len(sys.Messages) == baseMessages &&
			distinctPoints(sys) == baseDistinct {
			return sys
		}
	}
}

// distinctPoints counts the distinct configurations of the campaign grid
// over base.
func distinctPoints(base *config.System) int {
	spec := &campaign.Spec{Base: base, Axes: []campaign.Axis{campaignAxis}}
	seen := map[string]bool{}
	for v := campaignAxis.Min; v <= campaignAxis.Max+1e-9; v += campaignAxis.Step {
		sys, err := campaign.Materialize(spec, campaign.Point{campaignAxis.Param: v})
		if err != nil {
			return -1
		}
		seen[sys.Fingerprint()] = true
	}
	return len(seen)
}

func exploreDigest(root string, seed int64) (string, error) {
	in, err := exploreInput(root, seed)
	if err != nil {
		return "", err
	}
	return digest(in.space, in.spaceBase, in.golden, in.campSpec, in.campBase, in.chain, in.chainEdit), nil
}

// exploreRefs are the expected outputs, computed once at set-up by direct
// runs of the same configurations.
type exploreRefs struct {
	points      map[string]bool // campaign point key → schedulable
	chain, edit bool            // global-product verdicts
}

// parsed decodes the op's inputs the way the CLIs do.
func (in *exploreInputs) parse() (*synth.Space, *campaign.Spec, *config.System, *config.System, error) {
	space, err := synth.ParseSpaceBase(bytes.NewReader(in.space), func() (*config.System, error) {
		return config.ReadXML(bytes.NewReader(in.spaceBase))
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	spec, err := campaign.ParseSpecBase(bytes.NewReader(in.campSpec), func() (*config.System, error) {
		return config.ReadXML(bytes.NewReader(in.campBase))
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	chain, err := config.ReadXML(bytes.NewReader(in.chain))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	edit, err := config.ReadXML(bytes.NewReader(in.chainEdit))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return space, spec, chain, edit, nil
}

// references computes every campaign point's verdict by a direct run of
// its configuration, and the global-product verdicts of both chains.
func (in *exploreInputs) references(ctx context.Context) (*exploreRefs, error) {
	_, spec, _, _, err := in.parse()
	if err != nil {
		return nil, err
	}
	refs := &exploreRefs{points: map[string]bool{}}
	ax := spec.Axes[0]
	for v := ax.Min; v <= ax.Max+1e-9; v += ax.Step {
		pt := campaign.Point{ax.Param: v}
		sys, err := campaign.Materialize(spec, pt)
		if err != nil {
			return nil, err
		}
		body, err := xmlBytes(sys)
		if err != nil {
			return nil, err
		}
		vd, err := analyzeConfig(ctx, nil, body, false, 0)
		if err != nil {
			return nil, fmt.Errorf("campaign point %s: %w", pt.Key(), err)
		}
		refs.points[pt.Key()] = vd.Schedulable
	}
	for _, c := range []struct {
		body []byte
		dst  *bool
	}{{in.chain, &refs.chain}, {in.chainEdit, &refs.edit}} {
		vd, err := analyzeConfig(ctx, nil, c.body, false, 0)
		if err != nil {
			return nil, err
		}
		*c.dst = vd.Schedulable
	}
	return refs, nil
}

// runExplore runs, per op and over one fresh default jobs.Pool (GOMAXPROCS
// workers): the committed generic-EDF synthesis, a campaign grid on the
// seeded base, and compose on the seeded 16-module chain followed by a
// one-module edit and re-analysis.
//
// The timed op has no store. Over an empty store every point is also an
// fsynced checkpoint, and on a virtual disk whose flush latency moves with
// other tenants' load that op's median spread 0.26-0.32 of itself over
// ten seeds, beyond any bound. A traced run pairs each traced op with the
// same op over an empty store, so store.ms still measures that path.
func runExplore(ctx context.Context, e *env) (*report, error) {
	in, err := exploreInput(e.root, e.seed)
	if err != nil {
		return nil, err
	}
	note, err := checkDigest(filepath.Join(e.root, "perfbench"), "explore", e.seed, false,
		digest(in.space, in.spaceBase, in.golden, in.campSpec, in.campBase, in.chain, in.chainEdit))
	if err != nil {
		return nil, err
	}
	e.notef("explore: seed %d; %s", e.seed, note)
	refs, err := in.references(ctx)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	x := &explorer{e: e, in: in, refs: refs, rep: rep}
	var twinMS []float64
	err = runSerial(ctx, e, rep, func(ctx context.Context, t *opTrace) (opResult, error) {
		res, err := x.op(ctx, t, false)
		if err != nil || t == nil {
			return res, err
		}
		// The paired store-backed op: the same explorations over an empty
		// store, outside the timed op, so store.ms is the difference.
		tt := newOpTrace()
		twin, err := x.op(ctx, tt, true)
		if err != nil {
			return opResult{}, fmt.Errorf("store-backed twin: %w", err)
		}
		twinMS = append(twinMS, ms(twin.wall))
		t.set("store.puts", tt.Values["store.puts"])
		t.set("store.bytes_written", tt.Values["store.bytes_written"])
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	if rep.layers != nil && len(twinMS) > 0 {
		rep.layers.final["store.ms"] = mean(twinMS) - mean(rep.layers.tracedMS)
	}
	return rep, nil
}

// explorer runs explore ops.
type explorer struct {
	e    *env
	in   *exploreInputs
	refs *exploreRefs
	rep  *report
	n    int
	// synthPoints is the first op's synthesis point count; a fresh pool,
	// and an empty store where there is one, make it the same for every
	// op.
	synthPoints int
}

// op runs one explore op. It returns the op's wall time, from parsing the
// inputs to the checked result (closing the pool and the store comes
// after), and its verdicts: every pool job, the points of all three
// explorations. The timed op runs with withStore false, its traced twin
// with true.
func (x *explorer) op(ctx context.Context, t *opTrace, withStore bool) (opResult, error) {
	start := time.Now()
	space, spec, chain, edit, err := x.in.parse()
	if err != nil {
		return opResult{}, err
	}
	var st *store.Store
	if withStore {
		// The stores stay until the run's work directory is removed at
		// exit, so no op's fsyncs queue behind another op's deletions.
		x.n++
		dir := filepath.Join(x.e.work, fmt.Sprintf("explore-%d", x.n))
		st, err = store.Open(dir, store.Options{
			PinnedKinds: []string{synth.StoreKind(), campaign.StoreKind(), compose.StoreKind()},
		})
		if err != nil {
			return opResult{}, err
		}
		defer st.Close()
	}
	// Every other pool option stays at its zero value: GOMAXPROCS
	// workers, the default queue, cache and backend.
	pool := jobs.New(jobs.Options{Store: st})
	defer pool.Close()

	// Synthesis first: on a cold store and pool its point count is the
	// golden 89 engine runs.
	var region *synth.Region
	err = t.time("synth.run_ms", func() error {
		eng := synth.NewEngine(pool, st, nil)
		s0, err := eng.Start(space)
		if err != nil {
			return err
		}
		fin, err := eng.Wait(ctx, s0.ID)
		if err != nil {
			return err
		}
		if fin.Status != synth.StatusDone || fin.Region == nil {
			return fmt.Errorf("synthesis ended %s: %s", fin.Status, fin.Error)
		}
		region = fin.Region
		if x.synthPoints == 0 {
			x.synthPoints = fin.Counts.Evaluations
		} else if fin.Counts.Evaluations != x.synthPoints {
			x.rep.mismatch("explore: synthesis took %d points, the first op %d", fin.Counts.Evaluations, x.synthPoints)
		}
		t.set("synth.points", float64(fin.Counts.Evaluations))
		return nil
	})
	if err != nil {
		return opResult{}, err
	}
	var camp campaign.State
	err = t.time("campaign.run_ms", func() error {
		eng := campaign.NewEngine(pool, st, nil)
		c0, err := eng.Start(spec)
		if err != nil {
			return err
		}
		camp, err = eng.Wait(ctx, c0.ID)
		if err != nil {
			return err
		}
		if camp.Status != campaign.StatusDone {
			return fmt.Errorf("campaign ended %s: %s", camp.Status, camp.Error)
		}
		t.set("campaign.points", float64(len(camp.Points)))
		return nil
	})
	if err != nil {
		return opResult{}, err
	}
	an := compose.New(pool, st, nil)
	var results [2]*compose.Result
	for i, sys := range []*config.System{chain, edit} {
		if t != nil {
			if err := t.time("compose.plan_ms", func() error {
				_, err := compose.NewPlan(sys)
				return err
			}); err != nil {
				return opResult{}, err
			}
		}
		if err := t.time("compose.run_ms", func() (err error) {
			results[i], err = an.Run(ctx, sys)
			return err
		}); err != nil {
			return opResult{}, err
		}
	}
	all := pool.List()
	x.check(region, camp, results)
	res := opResult{wall: time.Since(start), verdicts: len(all)}
	for _, jb := range all {
		if jb.Status != jobs.StatusDone {
			return opResult{}, fmt.Errorf("pool job %s ended %s", jb.ID, jb.Status)
		}
	}
	if t != nil {
		var actions float64
		for _, r := range results {
			for _, m := range r.Modules {
				if !m.CacheHit {
					actions += float64(m.Events)
				}
			}
		}
		t.set("compose.modules_analyzed", float64(results[0].ModulesAnalyzed+results[1].ModulesAnalyzed))
		t.set("compose.actions", actions)
		poolLayers(t, all)
		if st != nil {
			ss := st.Stats()
			t.set("store.puts", float64(ss.Puts))
			t.set("store.bytes_written", float64(ss.Bytes))
		}
	}
	return res, nil
}

// check compares one op's outputs with the references.
func (x *explorer) check(region *synth.Region, camp campaign.State, results [2]*compose.Result) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(region); err != nil || !bytes.Equal(buf.Bytes(), x.in.golden) {
		x.rep.mismatch("explore: synthesized region differs from %s", synthGoldenFile)
	}
	if len(camp.Points) != len(x.refs.points) {
		x.rep.mismatch("explore: campaign evaluated %d points, want %d", len(camp.Points), len(x.refs.points))
	}
	for _, p := range camp.Points {
		want, ok := x.refs.points[p.Point.Key()]
		if !ok || p.Source == campaign.SourceFailed || p.Schedulable != want {
			x.rep.mismatch("explore: campaign point %s schedulable=%t source=%s, direct run says %t",
				p.Point.Key(), p.Schedulable, p.Source, want)
		}
	}
	for i, want := range []bool{x.refs.chain, x.refs.edit} {
		got := results[i].Verdict == jobs.VerdictSchedulable
		if got != want {
			x.rep.mismatch("explore: compose verdict %s on chain %d, global product says schedulable=%t",
				results[i].Verdict, i, want)
		}
	}
	if r := results[0]; r.ModulesAnalyzed+r.ModulesCached != composeModules {
		x.rep.mismatch("explore: compose covered %d+%d modules, want %d", r.ModulesAnalyzed, r.ModulesCached, composeModules)
	}
	if r := results[1]; r.ModulesAnalyzed != 1 {
		x.rep.mismatch("explore: the edit re-analyzed %d modules, want exactly 1", r.ModulesAnalyzed)
	}
}

// poolLayers records the jobs layer of an op from the pool's job
// snapshots: queue wait and run time per job, where each verdict came
// from, and the median latency of each source.
func poolLayers(t *opTrace, all []jobs.Job) {
	var wait, run []float64
	var computed, memory []float64
	var disk int
	for _, jb := range all {
		lat := ms(jb.Finished.Sub(jb.Submitted))
		switch {
		case jb.DiskHit:
			disk++
		case jb.CacheHit:
			memory = append(memory, lat)
		default:
			computed = append(computed, lat)
			wait = append(wait, ms(jb.Started.Sub(jb.Submitted)))
			run = append(run, ms(jb.Finished.Sub(jb.Started)))
		}
	}
	n := float64(len(all))
	if n == 0 {
		return
	}
	t.set("jobs.queue_wait_ms", sum(wait)/n)
	t.set("jobs.run_ms", sum(run)/n)
	t.set("jobs.computed_frac", float64(len(computed))/n)
	t.set("jobs.memory_hit_frac", float64(len(memory))/n)
	t.set("jobs.disk_hit_frac", float64(disk)/n)
	if len(computed) > 0 {
		t.set("jobs.computed_ms_p50", median(computed))
	}
	if len(memory) > 0 {
		t.set("jobs.memory_hit_ms_p50", median(memory))
	}
}
