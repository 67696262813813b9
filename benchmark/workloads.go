package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"

	"nocvi/internal/bench"
	"nocvi/internal/cache"
	"nocvi/internal/core"
	"nocvi/internal/fault"
	"nocvi/internal/floorplan"
	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/specgen"
	"nocvi/internal/specio"
)

// env is what every workload shares.
type env struct {
	ctx     context.Context
	lib     *model.Library
	seed    uint64
	workers int    // engine and campaign workers
	tmp     string // private directory for on-disk stores
}

// instance is one workload prepared in this process. Fixtures that a
// user would already have (a populated cache store) are built by the
// workload's constructor, outside all timing.
type instance interface {
	// setup builds the inputs and opens the stores; the harness times
	// it as setup_s and calls it many times.
	setup() error
	// op runs one timed operation.
	op(tr *tracer) (*outcome, error)
	// reference computes, outside all timing, what every op must
	// reproduce, and returns the entries the seed-0 goldens pin.
	reference() (map[string]golden, error)
	// check verifies one op's outputs against the reference.
	check(o *outcome) error
	// replay rebuilds an op's design points through public calls.
	replay(o *outcome, tr *tracer) error
}

type workload struct {
	name string
	new  func(e *env) (instance, error)
}

// workloads are the benchmark's five workloads; BENCHMARK.json records
// why each was chosen.
var workloads = []workload{
	{"synth-suite", newSuite},
	{"sweep-d104", newSweep},
	{"cache-hit-d26", newCacheHit},
	{"cache-miss-d26", newCacheMiss},
	{"survive-d26", newSurvive},
}

// outcome is what one op returned, kept until it is checked and, in a
// traced run, replayed.
type outcome struct {
	explored   int // engine candidates; a cache hit explores none
	prune      core.PruneStats
	bestPowerW []float64 // Best() NoC dynamic power per result
	bestLatCyc []float64 // BestLatency() mean zero-load latency per result

	results []*core.Result
	sweep   *core.SweepResult
	camps   []*fault.Campaign

	// The cache workloads only.
	variant    *variant
	hit        bool
	warmStarts int
	evictions  int64 // store evictions so far
	storeBytes int64
}

func (o *outcome) addResult(res *core.Result, explored bool) {
	if explored {
		o.explored += res.Explored
		o.prune.Evaluated += res.PruneStats.Evaluated
		o.prune.BoundPruned += res.PruneStats.BoundPruned
		o.prune.StagePruned += res.PruneStats.StagePruned
		o.prune.Feasible += res.PruneStats.Feasible
	}
	o.bestPowerW = append(o.bestPowerW, res.Best().NoCPower.DynW())
	o.bestLatCyc = append(o.bestLatCyc, res.BestLatency().MeanLatencyCycles)
	o.results = append(o.results, res)
}

// golden pins one seed-0 output: a result, sweep or campaign digest and,
// for results, the winners' power and latency bits.
type golden struct {
	Digest      string `json:"digest"`
	PowerBits   uint64 `json:"power_bits,omitempty"`
	LatencyBits uint64 `json:"latency_bits,omitempty"`
}

func goldenOf(d specio.Digest, best, bestLat *core.DesignPoint) golden {
	return golden{d.String(), math.Float64bits(best.NoCPower.DynW()), math.Float64bits(bestLat.MeanLatencyCycles)}
}

// --- seeded inputs ---

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw is the i-th pseudo-random word of the (seed, salt) stream.
func draw(seed uint64, salt string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(salt)) //noclint:ignore errdrop besteffort: hash writes never fail
	return splitmix64(splitmix64(seed) ^ splitmix64(h.Sum64()+uint64(i)))
}

// scaled returns spec with each flow's bandwidth multiplied by a factor
// in [0.98, 1.00] drawn from (seed, salt, flow): a held-out spec of the
// same shape. Seed 0 returns the spec unmodified.
func scaled(spec *soc.Spec, seed uint64, salt string) *soc.Spec {
	if seed == 0 {
		return spec
	}
	out := *spec
	out.Flows = append([]soc.Flow(nil), spec.Flows...)
	for i := range out.Flows {
		u := float64(draw(seed, salt, i)>>11) / (1 << 53)
		out.Flows[i].BandwidthBps *= 1 - 0.02*u
	}
	return &out
}

// --- shared checks ---

// synthesize is core.SynthesizeContext in a span; a recovered candidate
// panic fails the op.
func synthesize(tr *tracer, e *env, spec *soc.Spec, opt core.Options) (*core.Result, error) {
	var res *core.Result
	err := tr.engine("core.synthesize", func() error {
		var err error
		res, err = core.SynthesizeContext(e.ctx, spec, e.lib, opt)
		return err
	})
	if err == nil && len(res.Errors) > 0 {
		err = fmt.Errorf("%s: %d candidate(s) panicked, first: %s", spec.Name, len(res.Errors), res.Errors[0].Error())
	}
	return res, err
}

// winnerKey identifies a design point and the bits of its two metrics.
func winnerKey(dp *core.DesignPoint) string {
	if dp == nil {
		return "none"
	}
	return fmt.Sprintf("%v/mid=%d/power=%#x/latency=%#x", dp.SwitchCounts, dp.MidSwitches,
		math.Float64bits(dp.NoCPower.DynW()), math.Float64bits(dp.MeanLatencyCycles))
}

func resultWinners(res *core.Result) string {
	return winnerKey(res.Best()) + " " + winnerKey(res.BestLatency())
}

// expect is what every op must reproduce for one synthesis input.
type expect struct {
	digest  specio.Digest // of a Workers=1 run: results do not depend on workers
	winners string        // of the NoPrune, Workers=1 oracle
}

// expectFor runs the harness-only references for one synthesis input
// and returns them with the Workers=1 result.
func expectFor(e *env, spec *soc.Spec, opt core.Options) (expect, *core.Result, error) {
	opt.Workers = 1
	det, err := core.SynthesizeContext(e.ctx, spec, e.lib, opt)
	if err != nil {
		return expect{}, nil, fmt.Errorf("%s reference: %w", spec.Name, err)
	}
	opt.NoPrune = true
	oracle, err := core.SynthesizeContext(e.ctx, spec, e.lib, opt)
	if err != nil {
		return expect{}, nil, fmt.Errorf("%s oracle: %w", spec.Name, err)
	}
	x := expect{cache.ResultDigest(det), resultWinners(oracle)}
	if w := resultWinners(det); w != x.winners {
		return expect{}, nil, fmt.Errorf("%s: pruned winners %s differ from the NoPrune oracle's %s", spec.Name, w, x.winners)
	}
	return x, det, nil
}

func (x expect) check(res *core.Result) error {
	if w := resultWinners(res); w != x.winners {
		return fmt.Errorf("%s: winners %s differ from the NoPrune oracle's %s", res.Spec.Name, w, x.winners)
	}
	if d := cache.ResultDigest(res); d != x.digest {
		return fmt.Errorf("%s: result digest %s, want %s", res.Spec.Name, d, x.digest)
	}
	return nil
}

// --- synth-suite ---

// suite synthesizes every bundled islanded spec in registry order,
// nocsynth's default path: intermediate island allowed, annotated
// floorplan, pruning on.
type suite struct {
	e     *env
	opt   core.Options
	specs []*soc.Spec
	want  []expect
}

func newSuite(e *env) (instance, error) {
	return &suite{e: e, opt: core.Options{AllowIntermediate: true, MaxIntermediateSwitches: 3, Workers: e.workers}}, nil
}

func (s *suite) setup() error {
	s.specs = s.specs[:0]
	for _, name := range bench.Names() {
		spec, err := bench.Islanded(name)
		if err != nil {
			return err
		}
		s.specs = append(s.specs, scaled(spec, s.e.seed, "synth-suite/"+name))
	}
	return nil
}

func (s *suite) op(tr *tracer) (*outcome, error) {
	o := &outcome{}
	for _, spec := range s.specs {
		res, err := synthesize(tr, s.e, spec, s.opt)
		if err != nil {
			return nil, err
		}
		o.addResult(res, true)
	}
	return o, nil
}

func (s *suite) reference() (map[string]golden, error) {
	g := map[string]golden{}
	s.want = make([]expect, len(s.specs))
	for i, spec := range s.specs {
		x, det, err := expectFor(s.e, spec, s.opt)
		if err != nil {
			return nil, err
		}
		s.want[i] = x
		g[spec.Name] = goldenOf(x.digest, det.Best(), det.BestLatency())
	}
	return g, nil
}

func (s *suite) check(o *outcome) error {
	for i, res := range o.results {
		if err := s.want[i].check(res); err != nil {
			return err
		}
	}
	return nil
}

func (s *suite) replay(o *outcome, tr *tracer) error {
	for i, res := range o.results {
		if err := replayPoints(tr, s.specs[i], s.e.lib, s.opt, resultPoints(res)); err != nil {
			return err
		}
	}
	return nil
}

// --- sweep-d104 ---

// sweep streams the first 2000 candidates of the 104-core, 10-island
// full-factorial space in the pre-layout estimation mode.
type sweep struct {
	e       *env
	opt     core.Options
	sw      core.SweepOptions
	spec    *soc.Spec
	digest  specio.Digest
	winners string
}

func newSweep(e *env) (instance, error) {
	return &sweep{
		e:   e,
		opt: core.Options{Workers: e.workers, Floorplan: floorplan.Options{SkipAnnotate: true}},
		sw:  core.SweepOptions{WidthPerIsland: 4, Limit: 2000},
	}, nil
}

func (s *sweep) setup() error {
	s.spec = scaled(specgen.Large(7, 104, 10), s.e.seed, "sweep-d104")
	return nil
}

func (s *sweep) run(opt core.Options) (*core.SweepResult, error) {
	res, err := core.SynthesizeSweep(s.e.ctx, s.spec, s.e.lib, opt, s.sw)
	if err == nil && res.ErrorCount > 0 {
		err = fmt.Errorf("%d candidate(s) panicked, first: %s", res.ErrorCount, res.Errors[0].Error())
	}
	if err == nil && res.BestPower == nil {
		err = errors.New("sweep found no feasible point")
	}
	return res, err
}

func sweepWinners(res *core.SweepResult) string {
	return winnerKey(res.BestPower) + " " + winnerKey(res.BestLatency)
}

func (s *sweep) op(tr *tracer) (*outcome, error) {
	var res *core.SweepResult
	err := tr.engine("core.sweep", func() error {
		var err error
		res, err = s.run(s.opt)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &outcome{
		explored:   int(res.Explored),
		prune:      res.PruneStats,
		bestPowerW: []float64{res.BestPower.NoCPower.DynW()},
		bestLatCyc: []float64{res.BestLatency.MeanLatencyCycles},
		sweep:      res,
	}, nil
}

func (s *sweep) reference() (map[string]golden, error) {
	opt := s.opt
	opt.Workers = 1
	det, err := s.run(opt)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	opt.NoPrune = true
	oracle, err := s.run(opt)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	s.digest, s.winners = cache.SweepResultDigest(det), sweepWinners(oracle)
	if w := sweepWinners(det); w != s.winners {
		return nil, fmt.Errorf("pruned winners %s differ from the NoPrune oracle's %s", w, s.winners)
	}
	return map[string]golden{"sweep": goldenOf(s.digest, det.BestPower, det.BestLatency)}, nil
}

func (s *sweep) check(o *outcome) error {
	if w := sweepWinners(o.sweep); w != s.winners {
		return fmt.Errorf("winners %s differ from the NoPrune oracle's %s", w, s.winners)
	}
	if d := cache.SweepResultDigest(o.sweep); d != s.digest {
		return fmt.Errorf("sweep digest %s, want %s", d, s.digest)
	}
	return nil
}

func (s *sweep) replay(o *outcome, tr *tracer) error {
	return replayPoints(tr, s.spec, s.e.lib, s.opt, sweepPoints(o.sweep))
}

// --- cache-hit-d26 and cache-miss-d26 ---

const (
	cacheRing     = 64       // the store holds this many variants before the first op
	cacheMaxBytes = 16 << 20 // small enough that the misses make eviction run
	// A miss is compared with a fresh synthesis for its first
	// missFreshAll edits and every missFreshEvery-th edit after that:
	// the fresh synthesis costs as much as the miss, outside the timing.
	missFreshAll   = 8
	missFreshEvery = 16
)

// variant is one edited D26 spec and the digest of its result, taken
// when the result was published. checked records that the digest has
// been compared with a fresh synthesis, which happens outside the timing.
type variant struct {
	n       int // edit number
	spec    *soc.Spec
	digest  specio.Digest
	checked bool
}

// cacheRun serves D26 variants through the content-addressed cache, on
// a store that already holds 64 one-island flow edits of D26. In the hit
// workload every op requests one of those 64, drawn from the seeded
// stream, and the cache probes, gets and decodes it. In the miss
// workload every op requests a new edit, which misses, warm-starts from
// the stored partitions of the unedited islands, synthesizes, encodes
// and puts. The two paths are measured apart, so no number depends on a
// mix of them.
type cacheRun struct {
	e              *env
	miss           bool
	opt            core.Options
	dir            string
	base           *soc.Spec
	intra          []int // indices of intra-island flows
	store, scratch *cache.Store
	ring           []*variant
	edits          int // edits made so far; edit n is a pure function of (seed, n)
	draws          int
}

func newCacheHit(e *env) (instance, error)  { return newCacheRun(e, false) }
func newCacheMiss(e *env) (instance, error) { return newCacheRun(e, true) }

func newCacheRun(e *env, miss bool) (instance, error) {
	c := &cacheRun{
		e:    e,
		miss: miss,
		opt:  core.Options{AllowIntermediate: true, MaxIntermediateSwitches: 3, Workers: e.workers},
		dir:  filepath.Join(e.tmp, "cache-d26"),
	}
	if err := c.buildSpecs(); err != nil {
		return nil, err
	}
	// The fixture: a store already holding the 64 variants of the ring.
	store, err := cache.Open(filepath.Join(c.dir, "store"), cache.StoreOptions{MaxBytes: cacheMaxBytes})
	if err != nil {
		return nil, err
	}
	for _, v := range c.ring {
		res, err := cache.Synthesize(e.ctx, store, v.spec, e.lib, c.opt)
		if err != nil {
			return nil, err
		}
		v.digest = cache.ResultDigest(res)
	}
	c.edits = cacheRing
	return c, nil
}

// buildSpecs derives the base spec and the ring's variant specs.
func (c *cacheRun) buildSpecs() error {
	base, err := bench.Islanded("d26_media")
	if err != nil {
		return err
	}
	c.base = scaled(base, c.e.seed, "cache-d26")
	c.intra = c.intra[:0]
	for i, f := range c.base.Flows {
		if c.base.IslandOf[f.Src] == c.base.IslandOf[f.Dst] {
			c.intra = append(c.intra, i)
		}
	}
	if len(c.intra) == 0 {
		return errors.New("d26 has no intra-island flow to edit")
	}
	old := c.ring
	c.ring = make([]*variant, cacheRing)
	for i := range c.ring {
		c.ring[i] = c.edit(i + 1)
		if old != nil {
			c.ring[i].digest, c.ring[i].checked = old[i].digest, old[i].checked
		}
	}
	return nil
}

// edit returns the base spec with one intra-island flow scaled by a
// factor unique to n: a new cache key whose other islands keep their
// partitions.
func (c *cacheRun) edit(n int) *variant {
	out := *c.base
	out.Flows = append([]soc.Flow(nil), c.base.Flows...)
	f := c.intra[draw(c.e.seed, "cache-d26/edit", n)%uint64(len(c.intra))]
	out.Flows[f].BandwidthBps *= 1 - 1e-7*float64(n)
	return &variant{n: n, spec: &out}
}

func (c *cacheRun) setup() error {
	if err := c.buildSpecs(); err != nil {
		return err
	}
	var err error
	if c.store, err = cache.Open(filepath.Join(c.dir, "store"), cache.StoreOptions{MaxBytes: cacheMaxBytes}); err != nil {
		return err
	}
	c.scratch, err = cache.Open(filepath.Join(c.dir, "scratch"), cache.StoreOptions{MaxBytes: cacheMaxBytes})
	return err
}

func (c *cacheRun) op(tr *tracer) (*outcome, error) {
	if c.miss {
		c.edits++
		return c.serve(tr, c.edit(c.edits), false)
	}
	c.draws++
	return c.serve(tr, c.ring[draw(c.e.seed, "cache-d26/stream", c.draws)%cacheRing], true)
}

// serve runs one cache.Synthesize and fails when the outcome is not the
// hit or miss the workload intended.
func (c *cacheRun) serve(tr *tracer, v *variant, wantHit bool) (*outcome, error) {
	var c0 uint64
	if tr != nil {
		c0 = cpuNs()
	}
	tr.start()
	res, err := cache.Synthesize(c.e.ctx, c.store, v.spec, c.e.lib, c.opt)
	hit := err == nil && res.CacheStats.Hits == 1
	if hit {
		tr.stop("cache.hit")
	} else {
		tr.stop("cache.miss")
		tr.add("core.engine_cpu_ns", float64(cpuNs()-c0))
	}
	if err != nil {
		return nil, err
	}
	if hit != wantHit {
		return nil, fmt.Errorf("cache outcome %s, want hit=%v", res.CacheStats, wantHit)
	}
	if len(res.Errors) > 0 {
		return nil, fmt.Errorf("%d candidate(s) panicked, first: %s", len(res.Errors), res.Errors[0].Error())
	}
	st := c.store.StoreStats()
	o := &outcome{variant: v, hit: hit, warmStarts: res.CacheStats.WarmStarts, evictions: st.Evictions, storeBytes: st.Bytes}
	o.addResult(res, !hit)
	return o, nil
}

func (c *cacheRun) reference() (map[string]golden, error) {
	x, det, err := expectFor(c.e, c.base, c.opt)
	if err != nil {
		return nil, err
	}
	return map[string]golden{"base": goldenOf(x.digest, det.Best(), det.BestLatency())}, nil
}

// check compares the op's result with the digest its variant had when it
// was published: a miss publishes it, a hit must reproduce it. The
// digest is also compared with a fresh synthesis: for a hit on the
// variant's first hit, for a miss on a sample of the edits.
func (c *cacheRun) check(o *outcome) error {
	v := o.variant
	if !o.hit {
		v.digest = cache.ResultDigest(o.results[0])
		m := v.n - cacheRing // the miss's number: edits up to cacheRing filled the store
		v.checked = m > missFreshAll && m%missFreshEvery != 0
	}
	if !v.checked {
		fresh, err := core.SynthesizeContext(c.e.ctx, v.spec, c.e.lib, c.opt)
		if err != nil {
			return fmt.Errorf("fresh synthesis: %w", err)
		}
		if d := cache.ResultDigest(fresh); d != v.digest {
			return fmt.Errorf("published digest %s, fresh synthesis %s", v.digest, d)
		}
		v.checked = true
	}
	if d := cache.ResultDigest(o.results[0]); d != v.digest {
		return fmt.Errorf("cached result digest %s, want %s (hit=%v)", d, v.digest, o.hit)
	}
	return nil
}

func (c *cacheRun) replay(o *outcome, tr *tracer) error {
	if err := replayCache(tr, c.store, c.scratch, o.variant.spec, c.e.lib, c.opt, o.variant.digest); err != nil {
		return err
	}
	if o.hit {
		return nil
	}
	return replayPoints(tr, o.variant.spec, c.e.lib, c.opt, resultPoints(o.results[0]))
}

// --- survive-d26 ---

// survive runs the campaign-smoke flow (synthesize D26, then the
// power-state fault campaign, which re-routes every link fault) and then
// the survive-smoke flow (synthesize with one backup per flow, then a
// campaign that must absorb every fault with zero re-routing).
type survive struct {
	e     *env
	spec  *soc.Spec
	want  [2]expect
	camps [2][]byte // Workers=1 campaign reports, as JSON
}

func newSurvive(e *env) (instance, error) { return &survive{e: e}, nil }

func (s *survive) opts(k int) (core.Options, fault.CampaignOptions) {
	return core.Options{AllowIntermediate: true, Workers: s.e.workers, Survivability: k},
		fault.CampaignOptions{Workers: s.e.workers, Survivability: k}
}

func (s *survive) setup() error {
	spec, err := bench.Islanded("d26_media")
	if err != nil {
		return err
	}
	s.spec = scaled(spec, s.e.seed, "survive-d26")
	return nil
}

func (s *survive) op(tr *tracer) (*outcome, error) {
	o := &outcome{}
	for k := 0; k <= 1; k++ {
		opt, copt := s.opts(k)
		res, err := synthesize(tr, s.e, s.spec, opt)
		if err != nil {
			return nil, err
		}
		o.addResult(res, true)
		var camp *fault.Campaign
		err = tr.timed("fault.campaign", func() error {
			var err error
			camp, err = fault.RunCampaign(res.Best().Top, copt)
			return err
		})
		if err != nil {
			return nil, err
		}
		o.camps = append(o.camps, camp)
	}
	return o, nil
}

// campaignInvariants are the checks every campaign must pass: no
// shutdown-invariant violation, and at k=1 every fault absorbed without
// re-routing.
func campaignInvariants(k int, c *fault.Campaign) error {
	if !c.OK() {
		return fmt.Errorf("k=%d campaign: %d power state(s) violate the shutdown invariant", k, c.InvariantViolations)
	}
	if k > 0 && c.ZeroReroute != c.LinkFaults {
		return fmt.Errorf("k=%d campaign: %d of %d link faults absorbed without re-routing", k, c.ZeroReroute, c.LinkFaults)
	}
	return nil
}

func (s *survive) reference() (map[string]golden, error) {
	g := map[string]golden{}
	for k := 0; k <= 1; k++ {
		opt, copt := s.opts(k)
		x, det, err := expectFor(s.e, s.spec, opt)
		if err != nil {
			return nil, err
		}
		s.want[k] = x
		copt.Workers = 1
		camp, err := fault.RunCampaign(det.Best().Top, copt)
		if err != nil {
			return nil, err
		}
		if err := campaignInvariants(k, camp); err != nil {
			return nil, err
		}
		if s.camps[k], err = json.Marshal(camp); err != nil {
			return nil, err
		}
		sum := sha256.Sum256(s.camps[k])
		g[fmt.Sprintf("k%d", k)] = goldenOf(x.digest, det.Best(), det.BestLatency())
		g[fmt.Sprintf("campaign-k%d", k)] = golden{Digest: hex.EncodeToString(sum[:])}
	}
	return g, nil
}

func (s *survive) check(o *outcome) error {
	for k, res := range o.results {
		if err := s.want[k].check(res); err != nil {
			return err
		}
		if err := campaignInvariants(k, o.camps[k]); err != nil {
			return err
		}
		got, err := json.Marshal(o.camps[k])
		if err != nil {
			return err
		}
		if string(got) != string(s.camps[k]) {
			return fmt.Errorf("k=%d campaign report differs from the Workers=1 reference", k)
		}
	}
	return nil
}

// replay puts each k's points under a span of its own, replay.k0 or
// replay.k1, so the spans file splits the stage times by k.
func (s *survive) replay(o *outcome, tr *tracer) error {
	for k, res := range o.results {
		opt, _ := s.opts(k)
		err := tr.timed(fmt.Sprintf("replay.k%d", k), func() error {
			return replayPoints(tr, s.spec, s.e.lib, opt, resultPoints(res))
		})
		if err != nil {
			return err
		}
	}
	return nil
}
