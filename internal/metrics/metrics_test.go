package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3}), 2) {
		t.Error("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("empty mean not 0")
	}
}

func TestGeoMeanSpeedup(t *testing.T) {
	// (1.21 * 1.0)^(1/2) - 1 = 0.1
	if g := GeoMeanSpeedup([]float64{0.21, 0}); !almost(g, math.Sqrt(1.21)-1) {
		t.Errorf("geomean = %v", g)
	}
	if GeoMeanSpeedup(nil) != 0 {
		t.Error("empty geomean not 0")
	}
	// Must not blow up on a catastrophic slowdown.
	if g := GeoMeanSpeedup([]float64{-1.5}); math.IsNaN(g) || math.IsInf(g, 0) {
		t.Errorf("geomean on -150%% = %v", g)
	}
}

// Property: geomean lies between min and max gain.
func TestGeoMeanBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		gains := make([]float64, len(raw))
		for i, r := range raw {
			gains[i] = float64(r)/255*0.8 - 0.2 // gains in [-0.2, 0.6]
		}
		g := GeoMeanSpeedup(gains)
		return g >= Min(gains)-1e-9 && g <= Max(gains)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4}
	if Min(xs) != -1 || Max(xs) != 4 {
		t.Error("min/max wrong")
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty min/max not 0")
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("design", "ipc", "mpki")
	tb.AddRow("baseline", "1.234", "10")
	tb.AddRow("pdede", "1.411", "5")
	tb.AddRow("short")
	out := tb.String()
	if !strings.Contains(out, "baseline") || !strings.Contains(out, "1.234") {
		t.Errorf("table missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // header + rule + 3 rows
		t.Errorf("table has %d lines:\n%s", len(lines), out)
	}
	// Columns align: every row has the same prefix width up to column 2.
	if !strings.Contains(lines[0], "design") {
		t.Error("missing header")
	}
}

func TestPct(t *testing.T) {
	if Pct(0.144) != "+14.4%" {
		t.Errorf("Pct = %s", Pct(0.144))
	}
	if Pct0(0.547) != "54.7%" {
		t.Errorf("Pct0 = %s", Pct0(0.547))
	}
	if Pct(-0.05) != "-5.0%" {
		t.Errorf("Pct = %s", Pct(-0.05))
	}
}
