package qtrace

import (
	"bytes"
	"io"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// lockedWriter makes a bytes.Buffer safe to share between the tracer's
// sink (written under the tracer lock) and the hammer's readers.
type lockedWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// TestHammer drives concurrent capture, snapshotting, and eviction
// through the ring under -race, mirroring the querylog ring hammer:
// 8 writers start/annotate/finish traces while 4 readers list, fetch,
// export, and serve them.
func TestHammer(t *testing.T) {
	tr := New(32, Policy{SampleN: 2, OnError: true, OnPlanDiverge: true})
	tr.SetSink(&lockedWriter{})

	const writers = 8
	const perWriter = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				qt := tr.StartQuery("slice", int64(i), 0, time.Now())
				sp := qt.Root().Child("plan").Str("backend", "OPT")
				sp.End()
				att := qt.Root().Child("attempt/OPT")
				att.Child("exec/OPT").Int("stmts", int64(i)).End()
				var out Outcome
				switch i % 3 {
				case 0:
					att.EndErr("internal")
					out.Err = "internal"
				case 1:
					out.Plan, out.Backend = "reexec", "LP"
					att.End()
				default:
					out.Backend = "OPT"
					att.End()
				}
				tr.Finish(qt, out)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var rg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, qt := range tr.Recent(8) {
					_ = qt.Export()
					_ = tr.Get(qt.ID())
				}
				_ = tr.WriteJSONL(io.Discard)
				rr := httptest.NewRecorder()
				tr.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/qtrace?n=4", nil))
				_ = tr.Stats()
			}
		}()
	}
	rg.Wait()

	st := tr.Stats()
	if st.Started != writers*perWriter {
		t.Fatalf("started = %d, want %d", st.Started, writers*perWriter)
	}
	// Every i%3==0 trace errors and every i%3==1 trace diverges, so at
	// least 2/3 of all traces retain.
	if st.Retained < writers*perWriter*2/3 {
		t.Fatalf("retained = %d of %d", st.Retained, st.Started)
	}
	if got := len(tr.Recent(0)); got != 32 {
		t.Fatalf("ring holds %d, want capacity 32", got)
	}
	if err := tr.SinkErr(); err != nil {
		t.Fatalf("sink err: %v", err)
	}
}
