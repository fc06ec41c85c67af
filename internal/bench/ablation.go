package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"dynslice/internal/interp"
	"dynslice/internal/profile"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/forward"
	"dynslice/internal/slicing/opt"
	"dynslice/internal/trace"
)

// Ablations beyond the paper's own figures (announced in DESIGN.md):
//
//   - each optimization family applied *alone* (Fig. 15 shows them
//     cumulatively, which hides overlap),
//   - a sweep over the path-specialization frequency threshold,
//   - the §4.2 hybrid mode's memory/slicing-time trade-off.

// soloConfigs returns one configuration per optimization family, enabled
// in isolation (path specialization also needs UseUse/LocalDefUse off to
// be truly solo, which Config permits).
func soloConfigs() []struct {
	Name string
	Cfg  opt.Config
} {
	mk := func(name string, set func(*opt.Config)) struct {
		Name string
		Cfg  opt.Config
	} {
		var c opt.Config
		set(&c)
		return struct {
			Name string
			Cfg  opt.Config
		}{name, c}
	}
	return []struct {
		Name string
		Cfg  opt.Config
	}{
		mk("OPT-1 only", func(c *opt.Config) { c.LocalDefUse = true }),
		mk("OPT-2b only", func(c *opt.Config) { c.UseUse = true }),
		mk("OPT-2c only", func(c *opt.Config) { c.PathSpec = true }),
		mk("OPT-3 only", func(c *opt.Config) { c.ShareData = true }),
		mk("OPT-4 only", func(c *opt.Config) { c.InferCD = true }),
		mk("OPT-5 only", func(c *opt.Config) { c.SpecCD = true; c.PathSpec = true }),
		mk("OPT-6 only", func(c *opt.Config) { c.ShareCDData = true }),
		mk("adaptive only", func(c *opt.Config) { c.AdaptiveDeltas = true }),
	}
}

// RunAblationSolo reports the label reduction of each optimization family
// applied in isolation.
func RunAblationSolo(w io.Writer, workloads []Workload) error {
	header(w, "Ablation: each optimization family alone (% labels remaining)",
		fmt.Sprintf("%-12s", "Program"))
	cfgs := soloConfigs()
	fmt.Fprintf(w, "%-12s", "")
	for _, c := range cfgs {
		fmt.Fprintf(w, " %14s", c.Name)
	}
	fmt.Fprintln(w)
	for _, wl := range workloads {
		res, err := Build(wl, Options{WithFP: true, NCriteria: 1})
		if err != nil {
			return err
		}
		col := profile.NewCollector(res.P)
		if _, err := interp.Run(res.P, interp.Options{Input: wl.Input, Sink: col}); err != nil {
			return err
		}
		full := float64(res.FP.LabelPairs())
		fmt.Fprintf(w, "%-12s", wl.Name)
		for _, c := range cfgs {
			g := opt.NewGraph(res.P, c.Cfg, col.HotPaths(1, 0), col.Cuts())
			f, err := os.Open(res.TracePath)
			if err != nil {
				return err
			}
			if err := trace.Replay(res.P, f, g); err != nil {
				return err
			}
			f.Close()
			fmt.Fprintf(w, " %13.1f%%", 100*float64(g.LabelPairs())/full)
		}
		fmt.Fprintln(w)
		res.Close()
	}
	return nil
}

// RunAblationPathThreshold sweeps the Ball-Larus specialization frequency
// threshold: specializing only hotter paths shrinks the static component
// (fewer nodes) at the cost of more labels.
func RunAblationPathThreshold(w io.Writer, workloads []Workload) error {
	thresholds := []int64{1, 4, 16, 64, 256}
	header(w, "Ablation: path-specialization frequency threshold",
		fmt.Sprintf("%-12s %s\n", "Program", "(threshold: paths, % labels) ..."))
	for _, wl := range workloads {
		res, err := Build(wl, Options{WithFP: true, NCriteria: 1})
		if err != nil {
			return err
		}
		col := profile.NewCollector(res.P)
		if _, err := interp.Run(res.P, interp.Options{Input: wl.Input, Sink: col}); err != nil {
			return err
		}
		full := float64(res.FP.LabelPairs())
		fmt.Fprintf(w, "%-12s", wl.Name)
		for _, th := range thresholds {
			g := opt.NewGraph(res.P, opt.Full(), col.HotPaths(th, 0), col.Cuts())
			f, err := os.Open(res.TracePath)
			if err != nil {
				return err
			}
			if err := trace.Replay(res.P, f, g); err != nil {
				return err
			}
			f.Close()
			fmt.Fprintf(w, "  (>=%d: %d, %.1f%%)", th, g.PathNodes(), 100*float64(g.LabelPairs())/full)
		}
		fmt.Fprintln(w)
		res.Close()
	}
	return nil
}

// RunAblationHybrid measures the §4.2 hybrid's trade-off: resident memory
// versus slicing time, across label budgets.
func RunAblationHybrid(w io.Writer, workloads []Workload) error {
	budgets := []int64{1 << 14, 1 << 16, 1 << 18}
	header(w, "Ablation: §4.2 hybrid (disk epochs) — memory ceiling vs slicing time",
		fmt.Sprintf("%-12s %s\n", "Program", "(budget: epochs, resident%, avg slice ms) ... then in-memory baseline"))
	for _, wl := range workloads {
		res, err := Build(wl, Options{WithOPT: true, NCriteria: 10})
		if err != nil {
			return err
		}
		col := profile.NewCollector(res.P)
		if _, err := interp.Run(res.P, interp.Options{Input: wl.Input, Sink: col}); err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s", wl.Name)
		for _, budget := range budgets {
			g := opt.NewGraph(res.P, opt.Full(), col.HotPaths(1, 0), col.Cuts())
			dir, err := os.MkdirTemp("", "hybrid")
			if err != nil {
				return err
			}
			if err := g.EnableHybrid(dir, budget); err != nil {
				return err
			}
			f, err := os.Open(res.TracePath)
			if err != nil {
				return err
			}
			if err := trace.Replay(res.P, f, g); err != nil {
				return err
			}
			f.Close()
			t0 := time.Now()
			if _, _, _, err := SliceAll(g, res.Crit); err != nil {
				return err
			}
			el := time.Since(t0)
			resident := 100 * float64(g.ResidentPairs()) / float64(g.LabelPairs())
			fmt.Fprintf(w, "  (%d: %d, %.0f%%, %.2f)", budget, g.HybridEpochs(), resident, ms(el)/float64(len(res.Crit)))
			os.RemoveAll(dir)
		}
		t0 := time.Now()
		if _, _, _, err := SliceAll(res.OPT, res.Crit); err != nil {
			return err
		}
		fmt.Fprintf(w, "   | in-mem %.2f ms\n", ms(time.Since(t0))/float64(len(res.Crit)))
		res.Close()
	}
	return nil
}

// RunForwardComparison contrasts forward-computation slicing (§5's
// contrast class) with the backward OPT algorithm: eager per-value slice
// sets versus on-demand traversal. Forward queries are table lookups, but
// the preprocessing materializes a large universe of distinct sets.
func RunForwardComparison(w io.Writer, workloads []Workload) error {
	header(w, "Forward computation vs OPT (§5 contrast class)",
		fmt.Sprintf("%-12s %14s %14s %14s %14s\n",
			"Program", "fwd pre(ms)", "fwd sets", "opt pre(ms)", "opt slice(ms)"))
	for _, wl := range workloads {
		res, err := Build(wl, Options{WithOPT: true, NCriteria: 25})
		if err != nil {
			return err
		}
		fwd := forward.New(res.P)
		f, err := os.Open(res.TracePath)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := trace.Replay(res.P, f, fwd); err != nil {
			return err
		}
		fwdPre := time.Since(t0)
		f.Close()
		// Sanity: forward and OPT agree on the first criterion.
		a := res.Crit[0]
		sf, _, err := fwd.Slice(slicing.AddrCriterion(a))
		if err != nil {
			return err
		}
		so, _, err := res.OPT.Slice(slicing.AddrCriterion(a))
		if err != nil {
			return err
		}
		if !sf.Equal(so) {
			return fmt.Errorf("%s: forward and OPT disagree", wl.Name)
		}
		optSlice, _, _, err := SliceAll(res.OPT, res.Crit)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %14.1f %14d %14.1f %14.2f\n",
			wl.Name, ms(fwdPre), fwd.DistinctSets(), ms(res.OPTBuild),
			ms(optSlice)/float64(len(res.Crit)))
		res.Close()
	}
	return nil
}
