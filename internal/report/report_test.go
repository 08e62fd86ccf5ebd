package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "Defect", "MinRes")
	tb.AddRow("Df16", "976Ω")
	tb.AddRow("Df7") // short row padded
	s := tb.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "Df16") {
		t.Errorf("render:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	// title + header + separator + 2 rows
	if len(lines) != 5 {
		t.Errorf("got %d lines:\n%s", len(lines), s)
	}
	// All table lines equal width (in runes — cells may contain Ω etc.).
	w := len([]rune(lines[1]))
	for _, l := range lines[1:] {
		if len([]rune(l)) != w {
			t.Errorf("ragged table:\n%s", s)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(`va"l`, "x,y")
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if !strings.Contains(got, `"va""l"`) || !strings.Contains(got, `"x,y"`) {
		t.Errorf("CSV quoting wrong: %q", got)
	}
	if !strings.HasPrefix(got, "a,b\n") {
		t.Errorf("CSV header wrong: %q", got)
	}
}

func TestRenderAll(t *testing.T) {
	a := NewTable("A", "x")
	a.AddRow("1")
	b := NewTable("B", "y")
	b.AddRow("2")
	var text, csv strings.Builder
	if err := RenderAll(&text, false, a, b); err != nil {
		t.Fatal(err)
	}
	if want := a.String() + "\n" + b.String() + "\n"; text.String() != want {
		t.Errorf("text:\n%q\nwant\n%q", text.String(), want)
	}
	if err := RenderAll(&csv, true, a, b); err != nil {
		t.Fatal(err)
	}
	if want := "x\n1\n\ny\n2\n\n"; csv.String() != want {
		t.Errorf("csv = %q, want %q", csv.String(), want)
	}
}

func TestSI(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{9760, "9.76kΩ"},
		{0.74, "740mΩ"},
		{1.03e6, "1.03MΩ"},
		{0, "0Ω"},
		{math.Inf(1), "∞Ω"},
		{3.2e-12, "3.2pΩ"},
	}
	for _, tc := range cases {
		if got := SI(tc.v, "Ω"); got != tc.want {
			t.Errorf("SI(%g) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestPlot(t *testing.T) {
	p := &Plot{Title: "DRV vs sigma", XLabel: "sigma", YLabel: "mV", Width: 40, Height: 8}
	x := []float64{-6, -3, 0, 3, 6}
	p.Add("MPcc1", x, []float64{700, 400, 70, 90, 120})
	p.Add("MNcc3", x, []float64{300, 150, 70, 75, 80})
	s := p.String()
	if !strings.Contains(s, "DRV vs sigma") {
		t.Error("missing title")
	}
	if !strings.Contains(s, "*=MPcc1") || !strings.Contains(s, "o=MNcc3") {
		t.Errorf("legend missing:\n%s", s)
	}
	if !strings.Contains(s, "*") {
		t.Error("no data points plotted")
	}
}

func TestPlotEmpty(t *testing.T) {
	p := &Plot{}
	var b strings.Builder
	if err := p.Write(&b); err == nil {
		t.Error("empty plot should error")
	}
}

func TestPlotFlatSeries(t *testing.T) {
	p := &Plot{Width: 10, Height: 4}
	p.Add("flat", []float64{0, 1}, []float64{5, 5})
	if s := p.String(); !strings.Contains(s, "*") {
		t.Errorf("flat series unplotted:\n%s", s)
	}
}
