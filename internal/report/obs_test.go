package report

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"bps/internal/obs"
)

func testRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Counter("device/hdd/bytes_read").Add(4096)
	reg.Counter("net/fabric/transfers").Add(3)
	h := reg.Histogram("device/hdd/service_ns")
	h.Observe(1000)
	h.Observe(3000)
	reg.Probe("device/hdd/utilization", func() float64 { return 0.25 })
	return reg
}

func TestWriteObsCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteObsCSV(&buf, testRegistry()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rows[0], ","); got != "layer,component,metric,kind,value" {
		t.Fatalf("header = %q", got)
	}
	// 2 counters + 5 histogram stats + 1 probe.
	if len(rows) != 1+2+5+1 {
		t.Fatalf("rows = %d:\n%v", len(rows), rows)
	}
	found := map[string]string{}
	for _, r := range rows[1:] {
		if len(r) != 5 {
			t.Fatalf("row width %d: %v", len(r), r)
		}
		found[r[0]+"/"+r[1]+"/"+r[2]] = r[4]
	}
	if found["device/hdd/bytes_read"] != "4096" {
		t.Fatalf("bytes_read = %q", found["device/hdd/bytes_read"])
	}
	if found["device/hdd/service_ns.count"] != "2" {
		t.Fatalf("service_ns.count = %q", found["device/hdd/service_ns.count"])
	}
	if found["device/hdd/service_ns.mean"] != "2000" {
		t.Fatalf("service_ns.mean = %q", found["device/hdd/service_ns.mean"])
	}
}

func TestFigureCSVEscapesTitle(t *testing.T) {
	f := fakeFigure(false)
	f.Title = `requests, sizes and "holes"`
	var buf bytes.Buffer
	if err := WriteFigureCSV(&buf, f); err != nil {
		t.Fatal(err)
	}
	// The whole output must stay machine-parseable despite the comma and
	// quotes in the title (cc rows are narrower than run rows).
	cr := csv.NewReader(&buf)
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		t.Fatalf("output not parseable: %v\n%s", err, buf.String())
	}
	var ccRows int
	for _, r := range rows {
		if r[0] != "cc" {
			continue
		}
		ccRows++
		if got := r[len(r)-1]; got != f.Title {
			t.Fatalf("cc row title = %q, want %q", got, f.Title)
		}
	}
	if ccRows != 4 {
		t.Fatalf("cc rows = %d", ccRows)
	}
}
