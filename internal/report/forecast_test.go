package report

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"

	"bps/internal/core"
	"bps/internal/obs/attrib"
	"bps/internal/obs/forecast"
	"bps/internal/sim"
)

func windowedReport() *attrib.Report {
	e := core.NewWindowEstimator(10 * sim.Millisecond)
	e.Add(64, 0, 8*sim.Millisecond)
	// Window 1 idle; window 2 active again, then a burst in window 3.
	e.Add(32, 20*sim.Millisecond, 26*sim.Millisecond)
	e.Add(4096, 30*sim.Millisecond, 39*sim.Millisecond)
	return &attrib.Report{Windows: e.Windows(), WindowEvery: e.Every()}
}

// TestWriteWindowsCSVValid parses the export back: every cell must be a
// finite number, including the idle window's zero rates.
func TestWriteWindowsCSVValid(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWindowsCSV(&buf, windowedReport()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("export is not valid CSV: %v", err)
	}
	if len(rows) != 5 { // header + 4 windows
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	for i, row := range rows[1:] {
		for j, cell := range row {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Errorf("row %d col %s: %q is not a number", i, rows[0][j], cell)
			}
			if v != v || v > 1e308 || v < -1e308 {
				t.Errorf("row %d col %s: %v not finite", i, rows[0][j], v)
			}
		}
	}
	// The idle window (row 2) exports plain zeros.
	idle := rows[2]
	for j, cell := range idle[2:] {
		if cell != "0" {
			t.Errorf("idle window col %s = %q, want 0", rows[0][j+2], cell)
		}
	}
}

// TestWriteForecastOutput checks the rendered table and that the burst
// window raises an alert line.
func TestWriteForecastOutput(t *testing.T) {
	var buf bytes.Buffer
	WriteForecast(&buf, windowedReport(), forecast.Config{Warmup: 1, BurstK: 2, Season: 2})
	out := buf.String()
	if !strings.Contains(out, "Burst forecast — window 0.010s, 4 windows") {
		t.Errorf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "alerts (k=2×baseline):") {
		t.Errorf("burst window produced no alert section:\n%s", out)
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("forecast table contains NaN/Inf:\n%s", out)
	}
	// Deterministic rendering.
	var buf2 bytes.Buffer
	WriteForecast(&buf2, windowedReport(), forecast.Config{Warmup: 1, BurstK: 2, Season: 2})
	if buf2.String() != out {
		t.Error("WriteForecast output diverged across identical reports")
	}
}

// TestWriteForecastEmptyReport must write nothing rather than panic.
func TestWriteForecastEmptyReport(t *testing.T) {
	var buf bytes.Buffer
	WriteForecast(&buf, nil, forecast.Config{})
	WriteForecast(&buf, &attrib.Report{}, forecast.Config{})
	if err := WriteWindowsCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.Len(); got != 0 {
		t.Fatalf("empty inputs wrote %d bytes: %q", got, buf.String())
	}
}
