package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"

	"nocvi/internal/cache"
	"nocvi/internal/core"
	"nocvi/internal/deadlock"
	"nocvi/internal/floorplan"
	"nocvi/internal/model"
	"nocvi/internal/partition"
	"nocvi/internal/power"
	"nocvi/internal/route"
	"nocvi/internal/soc"
	"nocvi/internal/specio"
	"nocvi/internal/topology"
	"nocvi/internal/vcg"
)

// point is one design point an op returned: the candidate that produced
// it and the two numbers a replay must reproduce bit for bit.
type point struct {
	counts []int
	mid    int
	powerW float64
	latCyc float64
}

func designPoint(dp *core.DesignPoint) point {
	return point{dp.SwitchCounts, dp.MidSwitches, dp.NoCPower.DynW(), dp.MeanLatencyCycles}
}

// resultPoints lists every point on Result.Points.
func resultPoints(res *core.Result) []point {
	pts := make([]point, len(res.Points))
	for i := range res.Points {
		pts[i] = designPoint(&res.Points[i])
	}
	return pts
}

// sweepPoints lists a sweep's best-power and best-latency points and its
// Pareto front.
func sweepPoints(res *core.SweepResult) []point {
	var pts []point
	if res.BestPower != nil {
		pts = append(pts, designPoint(res.BestPower))
	}
	if res.BestLatency != nil && res.BestLatency != res.BestPower {
		pts = append(pts, designPoint(res.BestLatency))
	}
	for _, p := range res.Front {
		pts = append(pts, point{p.SwitchCounts, p.MidSwitches, p.PowerW, p.LatencyCycles})
	}
	return pts
}

// replayPoints rebuilds each point from its (switch counts, mid
// switches) with the modules' public calls, in the engine's stage order,
// one span per stage, and asserts that NoC power and mean latency are
// bit-equal to what the engine reported. A replay that disagrees would
// time a different program, so a mismatch is an error.
func replayPoints(tr *tracer, spec *soc.Spec, lib *model.Library, opt core.Options, pts []point) error {
	var (
		freqs    []float64
		maxSizes []int
		vcgs     []*vcg.VCG
		flows    []soc.Flow
	)
	err := tr.timed("replay.prep", func() error {
		var err error
		if freqs, maxSizes, err = core.IslandClocks(spec, lib); err != nil {
			return err
		}
		alpha := opt.Alpha
		if alpha <= 0 {
			alpha = vcg.DefaultAlpha
		}
		if vcgs, err = vcg.BuildAll(spec, alpha); err != nil {
			return err
		}
		flows = spec.SortFlowsByBandwidth()
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	midFreq := lib.FreqGridHz
	for _, f := range freqs {
		midFreq = math.Max(midFreq, f)
	}
	ropt := opt.Router
	ropt.Survivability = opt.Survivability

	// One partition cache per island, shared by every point of the
	// result, as the engine memoizes min-cuts per (island, k).
	caches := make([]*partition.Cache, len(spec.Islands))
	cut := make([]map[int]bool, len(spec.Islands))
	for _, p := range pts {
		parts := make([][]int, len(p.counts))
		err := tr.timed("partition", func() error {
			for j, k := range p.counts {
				if caches[j] == nil {
					pOpt := opt.Partition
					if limit := maxSizes[j] - 1; pOpt.MaxPartSize == 0 || limit < pOpt.MaxPartSize {
						pOpt.MaxPartSize = limit
					}
					caches[j] = partition.NewCache(vcgs[j].Undirected(), nil, pOpt)
					cut[j] = map[int]bool{}
				}
				if !cut[j][k] {
					cut[j][k] = true
					tr.add("partition.calls", 1)
				}
				var err error
				if parts[j], err = caches[j].Partition(k); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("replay partition %v: %w", p.counts, err)
		}

		var top *topology.Topology
		err = tr.timed("topology.build", func() error {
			top = topology.New(spec, lib)
			for j, f := range freqs {
				top.SetIslandFreq(soc.IslandID(j), f)
			}
			for j, k := range p.counts {
				for i := 0; i < k; i++ {
					top.AddSwitch(soc.IslandID(j), false)
				}
			}
			base := 0
			for j, k := range p.counts {
				for i, c := range spec.CoresIn(soc.IslandID(j)) {
					if err := top.AttachCore(c, topology.SwitchID(base+parts[j][i])); err != nil {
						return err
					}
				}
				base += k
			}
			if p.mid > 0 {
				v := opt.IntermediateVoltage
				if v <= 0 {
					v = 1.0
				}
				ni := top.AddNoCIsland(midFreq, v)
				for i := 0; i < p.mid; i++ {
					top.AddSwitch(ni, true)
				}
			}
			return nil
		})
		if err == nil {
			err = tr.timed("route", func() error { return route.New(top, ropt).RouteFlows(flows) })
		}
		if err == nil {
			err = tr.timed("deadlock", func() error { return deadlock.Check(top) })
		}
		if err == nil && opt.Survivability > 0 {
			err = tr.timed("topology.validate", func() error { return top.ValidateSurvivable(opt.Survivability) })
		}
		if err == nil {
			err = tr.timed("floorplan", func() error {
				var sc floorplan.Scratch
				_, err := floorplan.PlaceWith(top, opt.Floorplan, &sc)
				return err
			})
		}
		if err == nil {
			err = tr.timed("topology.validate", top.Validate)
		}
		if err != nil {
			return fmt.Errorf("replay %v/mid=%d: %w", p.counts, p.mid, err)
		}
		var powerW, latCyc float64
		tr.do("power", func() { powerW, latCyc = power.NoC(top).DynW(), top.MeanZeroLoadLatency() })
		if math.Float64bits(powerW) != math.Float64bits(p.powerW) || math.Float64bits(latCyc) != math.Float64bits(p.latCyc) {
			return fmt.Errorf("replay %v/mid=%d: power %v W, latency %v cycles; engine reported %v W, %v cycles",
				p.counts, p.mid, powerW, latCyc, p.powerW, p.latCyc)
		}
		backups := 0
		for _, r := range top.Routes {
			backups += len(r.Backups)
		}
		tr.add("replay.cands", 1)
		tr.add("route.flows", float64(len(flows)))
		tr.add("route.backups", float64(backups))
	}
	return nil
}

// replayCache repeats a cached op's cache-layer calls one at a time:
// key, get and decode against the op's store, then encode and put
// against a scratch store, so the op's own store is never written. The
// re-encoded result must digest to want.
func replayCache(tr *tracer, store, scratch *cache.Store, spec *soc.Spec, lib *model.Library, opt core.Options, want specio.Digest) error {
	var key specio.Digest
	tr.do("cache.key", func() { key = cache.ResultKey(spec, lib, opt) })
	var blob []byte
	err := tr.timed("cache.get", func() error {
		var ok bool
		if blob, ok = store.Get(cache.ClassResult, key); !ok {
			return errors.New("entry missing from the store")
		}
		return nil
	})
	var res *core.Result
	if err == nil {
		err = tr.timed("cache.decode", func() error {
			var err error
			res, err = cache.DecodeResult(blob, spec, lib)
			return err
		})
	}
	var enc []byte
	if err == nil {
		tr.do("cache.encode", func() { enc = cache.EncodeResult(res) })
		err = tr.timed("cache.put", func() error { return scratch.Put(cache.ClassResult, key, enc) })
	}
	if err == nil && specio.Digest(sha256.Sum256(enc)) != want {
		err = errors.New("re-encoded result differs from the op's result")
	}
	if err != nil {
		return fmt.Errorf("replay cache: %w", err)
	}
	tr.add("cache.replays", 1)
	tr.add("cache.blob_bytes", float64(len(blob)))
	return nil
}
