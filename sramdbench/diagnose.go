package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"sramtest/internal/diag"
	"sramtest/internal/diag/diagtest"
	"sramtest/internal/diag/index"
	"sramtest/internal/server"
)

// The diagnose workload streams signatures to POST /v1/diagnose on a
// daemon serving a synthetic fleet dictionary: one signature per
// request, one request outstanding on each of diagConns connections.
// The run seed draws the query stream. The dictionary comes from a fixed
// seed: its 32 signatures and their ties set how many entries each
// answer lists, and that swung the per-request cost by ~30% between
// dictionary seeds, while the query draws of one dictionary agree within
// a few percent.
const (
	diagDictSeed = 112     // the fleet dictionary seed of BenchmarkDiagnoseIndexed
	diagEntries  = 100_000 // fleet scale, the regime the inverted index serves
	diagPool     = 32      // distinct signatures the entries are drawn from
	diagQueries  = 4096    // distinct requests, cycled through in order
	diagConns    = 2
	diagSetups   = 3
	// diagLinearEvery samples the queries whose indexed answer is also
	// checked against the linear Dictionary.Match: one in diagLinearEvery.
	diagLinearEvery = 64
)

// query is one request body and the exact response sramd must send.
type query struct {
	line, want []byte
}

func runDiagnose(cfg config) (outcome, error) {
	var o outcome
	path := filepath.Join(cfg.work, "fleet.json")
	if err := writeFleet(path); err != nil {
		return o, err
	}
	defer os.Remove(path)
	qs, err := queryPool(&o, path, cfg.seed)
	if err != nil {
		return o, err
	}
	debug.FreeOSMemory() // the client's copy of the dictionary is garbage now
	e := e2e{conns: diagConns, tail: 0.99}
	var issued int64
	err = e.measure(cfg, diagSetups, []string{"-diag-dict", path}, func(d *daemon) error {
		issued = stream(d, &o, &e, qs, cfg.window())
		return nil
	})
	if err != nil {
		return o, err
	}
	if !cfg.trace {
		e.report(&o)
		return o, nil
	}
	err = layerReport(cfg, &o, &e, "server", func(tr *tracer) (replayed, error) {
		return replayDiagnose(tr, path, qs, int(issued))
	})
	return o, err
}

// writeFleet writes the fleet dictionary sramd serves, as compact JSON:
// diag.Load reads it like the indented artifact form at well under half
// the size.
func writeFleet(path string) error {
	d, err := diagtest.FleetDictionary(rand.New(rand.NewSource(diagDictSeed)), diagEntries, diagPool, diag.DefaultFlowConditions())
	if err != nil {
		return err
	}
	b, err := json.Marshal(d)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// queryPool loads the dictionary file as sramd does and derives the
// request mix — verbatim entry signatures alternating with near-misses,
// sent in the binary codec — with each request's expected answer from
// the in-process index. The near-misses are diagtest.Perturb's two
// flavours that stay inside the signature's discrete bucket; the
// bucket-crossing flavours tie whole signature groups of the fleet
// dictionary, so a few of their answers list tens of thousands of
// entries and the per-request cost follows the draw. One query in
// diagLinearEvery is also matched by the linear scan; a disagreement
// there is a wrong answer of the index.
func queryPool(o *outcome, path string, seed int64) ([]query, error) {
	d, err := diag.Load(path)
	if err != nil {
		return nil, err
	}
	ix, err := index.New(d)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	qs := make([]query, diagQueries)
	for i := range qs {
		sig := d.Entries[rng.Intn(len(d.Entries))].Sig
		if i%2 == 1 {
			sig = diagtest.Perturb(rng, sig, i/2%2)
		}
		bin, err := sig.MarshalBinary()
		if err != nil {
			return nil, err
		}
		qs[i].line = fmt.Appendf(nil, `{"bin":%q}`, base64.StdEncoding.EncodeToString(bin))
		if qs[i].want, err = encodeDiagnosis(ix.Match(sig)); err != nil {
			return nil, err
		}
		if i%diagLinearEvery == 0 {
			lin, err := encodeDiagnosis(d.Match(sig))
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(lin, qs[i].want) {
				o.mismatch("query %d: index.Match %s differs from the linear Dictionary.Match %s", i, qs[i].want, lin)
			}
		}
	}
	return qs, nil
}

// encodeDiagnosis renders a diagnosis exactly as sramd answers a
// one-line /v1/diagnose request.
func encodeDiagnosis(dg diag.Diagnosis) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(server.DiagResult{Index: 0, Diagnosis: &dg})
	return buf.Bytes(), err
}

// stream keeps one request outstanding on each of diagConns connections
// until the window closes and returns how many queries it issued; query
// i of a run is qs[i % len(qs)].
func stream(d *daemon, o *outcome, e *e2e, qs []query, window time.Duration) int64 {
	deadline := time.Now().Add(window)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < diagConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			var lat []float64
			var wrong []string
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				q := qs[i%int64(len(qs))]
				t0 := time.Now()
				body, err := post(client, d.base+"/v1/diagnose", q.line)
				if err == nil && !bytes.Equal(body, q.want) {
					err = fmt.Errorf("answer %s differs from the in-process index.Match %s", bytes.TrimSpace(body), bytes.TrimSpace(q.want))
				}
				lat = append(lat, ms(time.Since(t0)))
				if err != nil {
					wrong = append(wrong, fmt.Sprintf("query %d: %v", i, err))
				}
			}
			mu.Lock()
			defer mu.Unlock()
			e.lat = append(e.lat, lat...)
			e.items += len(lat) - len(wrong)
			o.attempted += len(lat)
			o.failed += len(wrong)
			for _, w := range wrong {
				o.mismatch("%s", w)
			}
		}()
	}
	wg.Wait()
	return next.Load()
}

// replayDiagnose loads the dictionary and builds its index as sramd's
// start-up does, then answers the run's first n queries one at a time
// through the server's decode, match and encode steps.
func replayDiagnose(tr *tracer, path string, qs []query, n int) (replayed, error) {
	var r replayed
	var d *diag.Dictionary
	var ix *index.Index
	var err error
	tr.do("diag.load", func() { d, err = diag.Load(path) })
	if err != nil {
		return r, err
	}
	tr.do("index.build", func() { ix, err = index.New(d) })
	if err != nil {
		return r, err
	}
	for i := 0; i < n; i++ {
		q := qs[i%len(qs)]
		tr.setItem(i)
		var out []byte
		tr.do("server", func() {
			var sig diag.Signature
			tr.do("diag.decode", func() { sig, err = server.DecodeDiagLine(q.line) })
			if err != nil {
				return
			}
			var dg diag.Diagnosis
			tr.do("index.match", func() { dg = ix.Match(sig) })
			out, err = encodeDiagnosis(dg)
		})
		if err != nil {
			return r, err
		}
		r.items++
		if !bytes.Equal(out, q.want) {
			r.wrong++
		}
	}
	return r, nil
}
