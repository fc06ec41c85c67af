package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"

	"dynslice/internal/slicing"
	"dynslice/internal/telemetry"
)

// BenchTelemetry is one workload's observability record: graph shapes,
// per-optimization label-elimination tallies, per-algorithm query times,
// and the full metrics snapshot collected while building and slicing.
//
// SliceAvgMs is the mean time per criterion, as the median of
// telemetryPasses timed passes over the criteria; SliceSpreadMs is the
// range (slowest minus fastest) of the same passes, so a ratio between
// two backends can be read against run-to-run noise.
type BenchTelemetry struct {
	Name            string              `json:"name"`
	Steps           int64               `json:"steps"`
	FPSizeBytes     int64               `json:"fp_size_bytes"`
	OPTSizeBytes    int64               `json:"opt_size_bytes"`
	FPLabelPairs    int64               `json:"fp_label_pairs"`
	OPTLabelPairs   int64               `json:"opt_label_pairs"`
	PathNodes       int                 `json:"path_nodes"`
	StageLabelPairs map[string]int64    `json:"stage_label_pairs"`
	Elim            map[string]int64    `json:"elim"`
	SliceAvgMs      map[string]float64  `json:"slice_avg_ms"`
	SliceSpreadMs   map[string]float64  `json:"slice_spread_ms"`
	Snapshot        *telemetry.Snapshot `json:"snapshot"`
}

// telemetryPasses is how many timed passes feed each backend's
// slice_avg_ms: the median of three is robust to one slow pass.
const telemetryPasses = 3

// RunTelemetry builds every workload with a fresh registry, runs all
// three slicers over the standard criteria, and writes the per-benchmark
// records to outPath as JSON (cmd/experiments -exp telemetry).
func RunTelemetry(w io.Writer, workloads []Workload, outPath string) error {
	header(w, "Telemetry: per-benchmark pipeline metrics",
		fmt.Sprintf("%-12s %12s %12s %12s %10s\n",
			"Program", "FP labels", "OPT labels", "OPT elim", "written"))
	var out []BenchTelemetry
	for _, wl := range workloads {
		reg := telemetry.New()
		res, err := Build(wl, Options{
			WithFP: true, WithOPT: true, WithLP: true, WithStages: true,
			Telemetry: reg,
		})
		if err != nil {
			return err
		}
		bt := BenchTelemetry{
			Name:            wl.Name,
			Steps:           res.RunInfo.Steps,
			FPSizeBytes:     res.FP.SizeBytes(),
			OPTSizeBytes:    res.OPT.SizeBytes(),
			FPLabelPairs:    res.FP.LabelPairs(),
			OPTLabelPairs:   res.OPT.LabelPairs(),
			PathNodes:       res.OPT.PathNodes(),
			StageLabelPairs: map[string]int64{},
		}
		for i, g := range res.Stages {
			bt.StageLabelPairs[stageNames[i]] = g.LabelPairs()
		}
		e := res.OPT.Elim()
		bt.Elim = map[string]int64{
			"use_slots":     e.UseSlots,
			"opt1_du":       e.OPT1DU,
			"opt2_uu":       e.OPT2UU,
			"opt3_dedup":    e.OPT3Dedup,
			"opt4_delta":    e.OPT4Delta,
			"opt5_local":    e.OPT5Local,
			"opt5_same":     e.OPT5Same,
			"opt6_dedup":    e.OPT6Dedup,
			"adaptive_data": e.AdaptiveData,
			"adaptive_cd":   e.AdaptiveCD,
			"no_producer":   e.NoProducer,
			"no_ancestor":   e.NoAncestor,
			"data_labels":   e.DataLabels,
			"cd_labels":     e.CDLabels,
			"cd_execs":      e.CDExecs,
		}
		if bt.SliceAvgMs, bt.SliceSpreadMs, err = timeBackends(res); err != nil {
			return err
		}
		bt.Snapshot = reg.Snapshot()
		elim := e.OPT1DU + e.OPT2UU + e.AdaptiveData
		written := bt.Snapshot.Counters["trace.write.bytes"]
		fmt.Fprintf(w, "%-12s %12d %12d %12d %10d\n",
			wl.Name, bt.FPLabelPairs, bt.OPTLabelPairs, elim, written)
		out = append(out, bt)
		res.Close()
	}
	if outPath != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s\n", outPath)
	}
	return nil
}

// timeBackends runs the criteria through FP, OPT and LP telemetryPasses
// times, the backends taking turns within each pass so that host drift
// reaches all three alike. It returns each backend's median and range of
// the per-pass mean time per criterion.
func timeBackends(res *Result) (avg, spread map[string]float64, err error) {
	backends := []struct {
		name string
		s    slicing.Slicer
	}{{"FP", res.FP}, {"OPT", res.OPT}, {"LP", res.LP}}
	avg, spread = map[string]float64{}, map[string]float64{}
	if len(res.Crit) == 0 {
		return avg, spread, nil
	}
	passes := make([][]float64, len(backends))
	for range telemetryPasses {
		for i, b := range backends {
			t, _, _, err := SliceAll(b.s, res.Crit)
			if err != nil {
				return nil, nil, err
			}
			passes[i] = append(passes[i], ms(t)/float64(len(res.Crit)))
		}
	}
	for i, b := range backends {
		ps := passes[i]
		slices.Sort(ps)
		avg[b.name] = ps[len(ps)/2]
		spread[b.name] = ps[len(ps)-1] - ps[0]
	}
	return avg, spread, nil
}
