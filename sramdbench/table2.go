package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"

	"sramtest/internal/charac"
	"sramtest/internal/engine"
	"sramtest/internal/engine/spicebe"
	"sramtest/internal/exp"
	"sramtest/internal/jobs"
	"sramtest/internal/process"
	"sramtest/internal/regulator"
)

// table2Ref is the archived Table II the answers are checked against:
// identity with the repository's own model output, not with the paper's
// Min. Res. column, which the model does not reproduce.
const table2Ref = "results/table2.txt"

// cell is one Table II cell: a regulator defect and a Table II case
// study (1..5, the CSx-1 column).
type cell struct {
	defect regulator.Defect
	cs     int
}

func (c cell) String() string {
	return fmt.Sprintf("%s/%s", c.defect, charac.Table2CaseStudies()[c.cs-1].Name)
}

func (c cell) spec() jobs.Spec {
	return jobs.Spec{Kind: jobs.KindCharac, Charac: &jobs.CharacSpec{Defects: []int{int(c.defect)}, CaseStudies: []int{c.cs}}}
}

// table2Draw is a run's cells in submission order. Cell costs span three
// decades (10 ms to 8 s on two cores), so a free draw would make every
// metric swing with the seed. The draw is instead made of pairs whose
// two cells cost the same within a few percent — the CS2 and CS5 cells
// of each defect, and two pairs of heavy CS1 cells — from each of which
// the seed picks one, plus every CS3 and CS4 cell. Each draw so does the
// same work, ~22 s on a 2-core host, inside the window; the seed also
// shuffles the order, which moves the DRV-anchor cost (paid by the first
// cell of each case study) between cells.
func table2Draw(seed int64) []cell {
	rng := rand.New(rand.NewSource(seed))
	pick := func(a, b cell) cell {
		if rng.Intn(2) == 0 {
			return a
		}
		return b
	}
	var out []cell
	for _, d := range regulator.DRFCandidates() {
		out = append(out, pick(cell{d, 2}, cell{d, 5}), cell{d, 3}, cell{d, 4})
	}
	out = append(out,
		pick(cell{regulator.Df2, 1}, cell{regulator.Df26, 1}),
		pick(cell{regulator.Df8, 1}, cell{regulator.Df23, 1}))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func runTable2(cfg config) (outcome, error) {
	var o outcome
	raw, err := os.ReadFile(table2Ref)
	if err != nil {
		return o, err
	}
	want := map[string][]string{}
	for _, row := range tableRows(string(raw)) {
		want[row[0]+"/"+row[1]] = row
	}
	draw := table2Draw(cfg.seed)
	e := e2e{conns: 1, tail: 0.50}
	var done []cell
	var results [][]byte
	err = e.measure(cfg, jobSetups, nil, func(d *daemon) error {
		start := time.Now()
		for i := 0; i < len(draw) && (i == 0 || time.Since(start) < cfg.window()); i++ {
			c := draw[i]
			spec, err := json.Marshal(c.spec())
			if err != nil {
				return err
			}
			t0 := time.Now()
			res, err := d.submit(spec)
			if err == nil {
				err = checkRow(res, want[c.String()])
			}
			e.lat = append(e.lat, ms(time.Since(t0)))
			o.attempted++
			if err != nil {
				o.failed++
				o.mismatch("%s: %v", c, err)
				continue
			}
			e.items++
			done = append(done, c)
			results = append(results, res)
		}
		return nil
	})
	if err != nil {
		return o, err
	}
	if !cfg.trace {
		e.report(&o)
		return o, nil
	}
	err = layerReport(cfg, &o, &e, "", func(tr *tracer) (replayed, error) { return replayTable2(tr, done, results) })
	return o, err
}

// checkRow requires a job's rendered table to hold exactly the archived
// row of its cell.
func checkRow(res []byte, want []string) error {
	if want == nil {
		return errors.New("no archived row for this cell")
	}
	if rows := tableRows(string(res)); len(rows) != 1 || !slices.Equal(rows[0], want) {
		return fmt.Errorf("rendered rows %q, archived %q", rows, want)
	}
	return nil
}

// tableRows returns the trimmed cells of a rendered report table's data
// rows: every "|" line after the header and its rule.
func tableRows(text string) [][]string {
	var rows [][]string
	n := 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		if n++; n <= 2 {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, cells)
	}
	return rows
}

// replayTable2 recomputes the cells in-process in the order sramd served
// them, from empty memos as a fresh sramd starts: per cell the jobs
// spec, the DRV oracle for every condition of the grid (the bisections
// sramd runs inside its first Lost calls), charac, and the rendering.
func replayTable2(tr *tracer, cells []cell, want [][]byte) (replayed, error) {
	charac.ResetCache()
	engine.ResetDRVCache()
	var eng engine.Engine = spicebe.New()
	var crit engine.Criterion = engine.Static{}
	if tr != nil {
		var err error
		if eng, err = engine.Resolve(""); err != nil {
			return replayed{}, err
		}
		if crit, err = engine.ResolveCriterion(""); err != nil {
			return replayed{}, err
		}
	}
	css := charac.Table2CaseStudies()
	r := replayed{items: len(cells)}
	for i, c := range cells {
		tr.setItem(i)
		var out []byte
		var err error
		tr.do("jobs", func() {
			var spec jobs.Spec
			if spec, err = c.spec().Normalize(); err != nil {
				return
			}
			opt := charac.DefaultOptions()
			opt.Conditions = charac.ReducedGrid()
			opt.Engine, opt.Criterion = eng, crit
			cs := css[spec.Charac.CaseStudies[0]-1]
			for _, cond := range opt.Conditions {
				eng.DRV1(cs.Variation, cond)
			}
			var res []charac.Result
			tr.do("charac", func() {
				res, err = charac.CharacterizeAll([]regulator.Defect{regulator.Defect(spec.Charac.Defects[0])}, []process.CaseStudy{cs}, opt)
			})
			if err != nil {
				return
			}
			var buf bytes.Buffer
			err = exp.Table2Report(res).Write(&buf)
			out = buf.Bytes()
		})
		if err != nil {
			return r, err
		}
		if !bytes.Equal(out, want[i]) {
			r.wrong++
		}
	}
	return r, nil
}
