package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	slicer "dynslice"
	"dynslice/internal/slicing"
)

// refs.json holds every workload's reference answers, produced once by
// -genrefs with a backend the planner does not route that workload to.
//
//go:embed refs.json
var refsJSON []byte

// ref is the expected answer for one criterion.
type ref struct {
	Stmts  int    `json:"stmts"`
	Digest string `json:"digest"` // sliceDigest of the statement set
}

// workloadRefs holds one workload's reference answers, keyed by
// criterion address.
type workloadRefs struct {
	Backend string        `json:"backend"` // backend that produced them
	Slices  map[int64]ref `json:"slices"`
}

func (r *workloadRefs) stmts(addr int64) int { return r.Slices[addr].Stmts }

// check compares one answer against the reference.
func (r *workloadRefs) check(addr int64, s *slicing.Slice) error {
	want, ok := r.Slices[addr]
	if !ok {
		return fmt.Errorf("criterion %d has no reference", addr)
	}
	if s.Len() != want.Stmts || sliceDigest(s) != want.Digest {
		return fmt.Errorf("criterion %d: slice of %d stmts differs from the %s reference of %d", addr, s.Len(), r.Backend, want.Stmts)
	}
	return nil
}

// matches reports whether the recording tracked exactly the criteria the
// references cover.
func (r *workloadRefs) matches(crit []int64) error {
	if len(crit) != len(r.Slices) {
		return fmt.Errorf("recording tracks %d criteria, references cover %d", len(crit), len(r.Slices))
	}
	for _, a := range crit {
		if _, ok := r.Slices[a]; !ok {
			return fmt.Errorf("criterion %d has no reference", a)
		}
	}
	return nil
}

// sliceDigest is a short hash of a slice's statements in ascending order.
func sliceDigest(s *slicing.Slice) string {
	h := sha256.New()
	var b [4]byte
	for _, id := range s.Stmts() {
		binary.LittleEndian.PutUint32(b[:], uint32(id))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func loadRefs(w *workload) (*workloadRefs, error) {
	var all map[string]*workloadRefs
	if err := json.Unmarshal(refsJSON, &all); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	r, ok := all[w.name]
	if !ok {
		return nil, fmt.Errorf("refs.json has no references for %s; run -genrefs", w.name)
	}
	return r, nil
}

// genRefs records every workload with a full build and answers all its
// criteria in one batch on the reference backend, writing refs.json into
// dir. The answers are the ones every later run is checked against.
func genRefs(dir, work string) error {
	all := map[string]*workloadRefs{}
	for _, w := range workloads {
		bw, err := w.source()
		if err != nil {
			return err
		}
		p, err := slicer.Compile(bw.Src)
		if err != nil {
			return err
		}
		rec, err := p.Record(slicer.RunOptions{Input: bw.Input, TrackCriteria: trackCriteria, TraceDir: work})
		if err != nil {
			return err
		}
		s := rec.FP()
		if w.refBackend == "OPT" {
			s = rec.OPT()
		}
		out, err := s.SliceAddrs(rec.Criteria())
		rec.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		r := &workloadRefs{Backend: s.Name(), Slices: map[int64]ref{}}
		for i, a := range rec.Criteria() {
			r.Slices[a] = ref{Stmts: out[i].Stmts, Digest: sliceDigest(out[i].Raw())}
		}
		all[w.name] = r
		fmt.Fprintf(os.Stderr, "%s: %d references from %s\n", w.name, len(r.Slices), r.Backend)
	}
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "refs.json"), append(b, '\n'), 0o644)
}
