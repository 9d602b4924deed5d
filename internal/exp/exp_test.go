package exp

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// skipHeavy gates the multi-second experiment regenerations out of the
// short tier: `go test -short` (the blocking CI job) stays fast, while the
// full suite — and CI's non-blocking full job — still runs everything.
func skipHeavy(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("heavy experiment regeneration; run without -short")
	}
}

// num parses a table cell as float for shape assertions.
func num(t *testing.T, table *Table, row int, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(table.Cell(row, col), 64)
	if err != nil {
		t.Fatalf("cell (%d, %s) = %q not numeric: %v", row, col, table.Cell(row, col), err)
	}
	return v
}

func TestExample1Exact(t *testing.T) {
	table, err := Example1(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Every computed value must equal the paper's value exactly (they are
	// rational numbers with small denominators).
	for i, row := range table.Rows {
		if row[1] != row[2] {
			t.Errorf("row %d (%s): computed %s != paper %s", i, row[0], row[1], row[2])
		}
	}
}

func TestFig6Shape(t *testing.T) {
	skipHeavy(t)
	table, err := Fig6(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(table.Rows))
	}
	// Pruning sharpens with N: candidates and influencers shrink (or stay
	// equal) from the smallest to the largest state space.
	if num(t, table, 0, "|I(q)|") < num(t, table, 2, "|I(q)|") {
		t.Errorf("influence set should shrink with N: %s vs %s",
			table.Cell(0, "|I(q)|"), table.Cell(2, "|I(q)|"))
	}
	// Candidates never exceed influencers.
	for r := 0; r < 3; r++ {
		if num(t, table, r, "|C(q)|") > num(t, table, r, "|I(q)|") {
			t.Errorf("row %d: |C| > |I|", r)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	skipHeavy(t)
	table, err := Fig7(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// More transitions per state → larger diamonds, so more influencers
	// and a costlier adaptation, from b = 6 to b = 10.
	if num(t, table, 2, "|I(q)|") <= num(t, table, 0, "|I(q)|") {
		t.Errorf("influencers should grow with b: %s vs %s",
			table.Cell(0, "|I(q)|"), table.Cell(2, "|I(q)|"))
	}
	if num(t, table, 2, "TS(ms)") <= num(t, table, 0, "TS(ms)") {
		t.Errorf("TS should grow with b: %s vs %s",
			table.Cell(0, "TS(ms)"), table.Cell(2, "TS(ms)"))
	}
}

func TestFig8Shape(t *testing.T) {
	skipHeavy(t)
	table, err := Fig8(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// More objects → more influencers and higher sampler-init cost.
	if num(t, table, 2, "|I(q)|") < num(t, table, 0, "|I(q)|") {
		t.Errorf("influencers should grow with |D|: %s vs %s",
			table.Cell(0, "|I(q)|"), table.Cell(2, "|I(q)|"))
	}
	if num(t, table, 2, "TS(ms)") < num(t, table, 0, "TS(ms)") {
		t.Errorf("TS should grow with |D|")
	}
}

func TestFig10Shape(t *testing.T) {
	table, err := Fig10(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := len(table.Rows)
	if n < 3 {
		t.Fatalf("want >= 3 rows, got %d", n)
	}
	// TS1 grows much faster than TS2 from 2 observations to the maximum.
	ts1Growth := num(t, table, n-1, "TS1(expected)") / num(t, table, 0, "TS1(expected)")
	ts2Growth := num(t, table, n-1, "TS2(expected)") / num(t, table, 0, "TS2(expected)")
	if ts1Growth <= ts2Growth {
		t.Errorf("TS1 growth %v should exceed TS2 growth %v", ts1Growth, ts2Growth)
	}
	// FB is always exactly one draw.
	for r := 0; r < n; r++ {
		if table.Cell(r, "FB") != "1.0" {
			t.Errorf("FB column must be 1.0, got %s", table.Cell(r, "FB"))
		}
	}
}

func TestFig11Shape(t *testing.T) {
	table, err := Fig11(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Rows: SA/∀, SS/∀, SA/∃, SS/∃.
	saAll := num(t, table, 0, "mean bias")
	ssAll := num(t, table, 1, "mean bias")
	saEx := num(t, table, 2, "mean bias")
	ssEx := num(t, table, 3, "mean bias")
	if abs(saAll) > 0.03 || abs(saEx) > 0.03 {
		t.Errorf("SA should be (nearly) unbiased: ∀ %v, ∃ %v", saAll, saEx)
	}
	if ssAll >= -0.005 {
		t.Errorf("SS must underestimate P∀NN, bias = %v", ssAll)
	}
	if ssEx <= 0.005 {
		t.Errorf("SS must overestimate P∃NN, bias = %v", ssEx)
	}
	// SS absolute error exceeds SA's.
	if num(t, table, 1, "mean |error|") <= num(t, table, 0, "mean |error|") {
		t.Error("SS ∀ error should exceed SA ∀ error")
	}
}

func TestFig12Shape(t *testing.T) {
	table, err := Fig12(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) < 20 {
		t.Fatalf("expected a row per tic, got %d", len(table.Rows))
	}
	no := MeanColumn(table, "NO")
	f := MeanColumn(table, "F")
	fb := MeanColumn(table, "FB")
	u := MeanColumn(table, "U")
	fbu := MeanColumn(table, "FBU")
	// The paper's ordering: NO worst; U worse than the adapted models;
	// FB best; FBU between FB and U; F worse than FB.
	if !(no > u && u > fb && f > fb) {
		t.Errorf("ordering violated: NO=%v U=%v F=%v FBU=%v FB=%v", no, u, f, fbu, fb)
	}
	if fbu < fb-1e-9 {
		t.Errorf("FBU (%v) should not beat FB (%v)", fbu, fb)
	}
	// At observation tics (0, 10, 20, 30) every observation-aware model
	// has (near) zero error.
	for _, r := range []int{0} {
		if v := num(t, table, r, "FB"); v > 1e-9 {
			t.Errorf("FB error at an observation = %v", v)
		}
	}
}

func TestFig13Fig14Shape(t *testing.T) {
	skipHeavy(t)
	cfg := TinyConfig()
	t13, err := Fig13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if num(t, t13, 2, "TS(ms)") < num(t, t13, 0, "TS(ms)") {
		t.Error("Fig13: TS should grow with |D|")
	}
	t14, err := Fig14(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Result cardinality shrinks as tau grows.
	if num(t, t14, 0, "#timestamp sets") < num(t, t14, 2, "#timestamp sets") {
		t.Errorf("Fig14: sets at τ=0.1 (%s) should be >= sets at τ=0.9 (%s)",
			t14.Cell(0, "#timestamp sets"), t14.Cell(2, "#timestamp sets"))
	}
}

func TestAblationShape(t *testing.T) {
	skipHeavy(t)
	table, err := Ablation(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 5 {
		t.Fatalf("want 5 variants, got %d", len(table.Rows))
	}
	// The unfiltered variant must refine at least as many influencers as
	// the baseline (row 0 = baseline, row 1 = no filter).
	if num(t, table, 1, "|I(q)| avg") < num(t, table, 0, "|I(q)| avg") {
		t.Errorf("no-filter influencers (%s) below baseline (%s)",
			table.Cell(1, "|I(q)| avg"), table.Cell(0, "|I(q)| avg"))
	}
	// Hoeffding eps=0.05 needs fewer worlds than eps=0.02.
	if num(t, table, 3, "worlds") >= num(t, table, 2, "worlds") {
		t.Error("looser accuracy must need fewer worlds")
	}
}

func TestTableRendering(t *testing.T) {
	table := &Table{
		Title:  "demo",
		Note:   "a note",
		Header: []string{"a", "b"},
	}
	table.AddRow("1", "2")
	table.AddRow("3", "4")
	var buf bytes.Buffer
	if err := table.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "a note", "1", "4"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := table.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,b\n1,2\n3,4\n" {
		t.Errorf("CSV = %q", got)
	}
	if table.Cell(1, "b") != "4" {
		t.Errorf("Cell = %s", table.Cell(1, "b"))
	}
}

func TestRunnersRegistry(t *testing.T) {
	rs := Runners()
	if len(rs) != 11 {
		t.Fatalf("expected 11 runners, got %d", len(rs))
	}
	seen := map[string]bool{}
	for _, r := range rs {
		if seen[r.Name] {
			t.Errorf("duplicate runner %s", r.Name)
		}
		seen[r.Name] = true
		if r.Run == nil || r.Desc == "" {
			t.Errorf("runner %s incomplete", r.Name)
		}
	}
	if _, ok := Find("fig6"); !ok {
		t.Error("Find(fig6) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) should fail")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
