package ingest

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"bps/internal/ioreq"
	"bps/internal/sim"
)

// sampleLog builds a small two-rank, three-file log with out-of-order
// segment arrival, matching counters included.
func sampleLog() *Log {
	l := &Log{Segments: []Segment{
		{Rank: 1, File: "/data/b", Op: ioreq.OpRead, Offset: 0, Length: 4096, Start: 0.5, End: 0.51},
		{Rank: 0, File: "/data/a", Op: ioreq.OpRead, Offset: 0, Length: 8192, Start: 0.5, End: 0.52},
		{Rank: 0, File: "/data/a", Op: ioreq.OpRead, Offset: 8192, Length: 8192, Start: 0.53, End: 0.54},
		{Rank: 0, File: "/data/out", Op: ioreq.OpWrite, Offset: 0, Length: 512, Start: 0.55, End: 0.551},
	}}
	l.SynthesizeCounters()
	return l
}

func TestValidateAcceptsConsistentLog(t *testing.T) {
	if err := sampleLog().Validate(); err != nil {
		t.Fatalf("consistent log rejected: %v", err)
	}
}

// TestValidateRejectsTruncation drops one segment but keeps the
// counters: the byte totals no longer match and the log must be
// rejected instead of silently replayed short.
func TestValidateRejectsTruncation(t *testing.T) {
	l := sampleLog()
	l.Segments = l.Segments[:len(l.Segments)-1]
	if err := l.Validate(); err == nil {
		t.Fatal("truncated log passed validation")
	}
}

func TestValidateRejectsBadSegments(t *testing.T) {
	cases := []Segment{
		{Rank: 0, File: "f", Length: 0, Start: 0, End: 1},   // zero length
		{Rank: 0, File: "f", Length: -1, Start: 0, End: 1},  // negative length
		{Rank: 0, File: "f", Offset: -1, Length: 1, End: 1}, // negative offset
		{Rank: 0, File: "f", Length: 1, Start: 2, End: 1},   // end before start
		{Rank: 0, File: "f", Length: 1, Start: -1, End: 1},  // negative start
		{Rank: 0, File: "f", Length: 1, Start: math.NaN(), End: 1},
		{Rank: 0, File: "f", Length: 1, Start: 0, End: math.NaN()},
		{Rank: 0, File: "f", Length: 1, Start: 0, End: math.Inf(1)},
		{Rank: 0, File: "f", Length: 1, Start: 0, End: 1e300},                    // past simulated time
		{Rank: 0, File: "f", Offset: math.MaxInt64, Length: 1, Start: 0, End: 1}, // extent overflows
		{Rank: 0, File: "a\nb", Length: 1, Start: 0, End: 1},                     // line break in the name
		{Rank: 0, File: "\x82", Length: 1, Start: 0, End: 1},                     // not UTF-8
	}
	for i, s := range cases {
		l := &Log{Segments: []Segment{s}}
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: bad segment %+v passed validation", i, s)
		}
	}
	if err := (&Log{}).Validate(); err == nil {
		t.Error("empty log passed validation")
	}
}

// TestValidateIgnoresUnknownCounters checks foreign counters are
// carried without being cross-checked.
func TestValidateIgnoresUnknownCounters(t *testing.T) {
	l := sampleLog()
	l.Counters = append(l.Counters, Counter{Rank: 0, File: "/data/a", Name: "POSIX_F_READ_TIME", Value: 12345})
	if err := l.Validate(); err != nil {
		t.Fatalf("unknown counter broke validation: %v", err)
	}
}

// TestRecordsNormalization checks records are origin-normalized and
// sorted, with the paper's 512-byte block rounding.
func TestRecordsNormalization(t *testing.T) {
	recs := sampleLog().Records()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	if recs[0].Start != 0 {
		t.Fatalf("earliest record starts at %v, want 0 (origin-normalized)", recs[0].Start)
	}
	// 0.5s origin: the 0.53s segment lands at 0.03s.
	if want := sim.FromSeconds(0.03); recs[2].Start != want {
		t.Fatalf("record 2 start %v, want %v", recs[2].Start, want)
	}
	if recs[0].Blocks != 16 { // 8192 bytes = 16 blocks; sorted order puts rank 0 first on equal start? (end decides)
		// sort: equal start 0.5, ends 0.51 < 0.52 → rank 1's 4096 first
		t.Logf("records[0] = %+v", recs[0])
	}
	if recs[0].Blocks != 8 || recs[1].Blocks != 16 {
		t.Fatalf("block counts %d,%d, want 8,16 (sorted by end on equal start)", recs[0].Blocks, recs[1].Blocks)
	}
}

// TestAccessesSlotAssignment checks the deterministic slot mapping —
// sorted (rank, file) order — and the per-slot extents.
func TestAccessesSlotAssignment(t *testing.T) {
	accs, extents := sampleLog().Accesses()
	if len(accs) != 4 {
		t.Fatalf("got %d accesses, want 4", len(accs))
	}
	// Sorted (rank, file): (0,/data/a)=0, (0,/data/out)=1, (1,/data/b)=2.
	wantExt := []int64{16384, 512, 4096}
	if !reflect.DeepEqual(extents, wantExt) {
		t.Fatalf("extents %v, want %v", extents, wantExt)
	}
	for _, a := range accs {
		switch {
		case a.PID == 0 && !a.Write && a.Slot != 0:
			t.Errorf("rank 0 read got slot %d, want 0", a.Slot)
		case a.PID == 0 && a.Write && a.Slot != 1:
			t.Errorf("rank 0 write got slot %d, want 1", a.Slot)
		case a.PID == 1 && a.Slot != 2:
			t.Errorf("rank 1 got slot %d, want 2", a.Slot)
		}
	}
}

// TestAccessesDeterministicAcrossInputOrder shuffles the segment input
// order and requires identical reconstructed streams.
func TestAccessesDeterministicAcrossInputOrder(t *testing.T) {
	a := sampleLog()
	b := sampleLog()
	// Reverse b's segments: parsing order must not matter.
	for i, j := 0, len(b.Segments)-1; i < j; i, j = i+1, j-1 {
		b.Segments[i], b.Segments[j] = b.Segments[j], b.Segments[i]
	}
	accsA, extA := a.Accesses()
	accsB, extB := b.Accesses()
	if !reflect.DeepEqual(accsA, accsB) {
		t.Fatalf("access streams differ across input order:\n%v\n%v", accsA, accsB)
	}
	if !reflect.DeepEqual(extA, extB) {
		t.Fatalf("extents differ across input order: %v vs %v", extA, extB)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	l := sampleLog()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, l); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Segments, l.Segments) {
		t.Fatalf("CSV round trip changed segments:\n%v\n%v", back.Segments, l.Segments)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	l := sampleLog()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, l); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Segments, l.Segments) {
		t.Fatalf("JSONL round trip changed segments")
	}
	if !reflect.DeepEqual(back.Counters, l.Counters) {
		t.Fatalf("JSONL round trip changed counters:\n%v\n%v", back.Counters, l.Counters)
	}
}

func TestReadCSVRejectsBadInput(t *testing.T) {
	cases := []string{
		"",        // no header
		"a,b,c\n", // wrong header
		"rank,file,op,offset,length,start_s,end_s\nx,f,read,0,1,0,1\n",    // bad rank
		"rank,file,op,offset,length,start_s,end_s\n0,f,chmod,0,1,0,1\n",   // bad op
		"rank,file,op,offset,length,start_s,end_s\n0,f,read,zero,1,0,1\n", // bad offset
	}
	for i, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: bad CSV accepted", i)
		}
	}
}

func TestReadCSVSkipsComments(t *testing.T) {
	in := "# a comment\nrank,file,op,offset,length,start_s,end_s\n# another\n0,f,read,0,512,0,0.1\n"
	l, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 {
		t.Fatalf("got %d segments, want 1", l.Len())
	}
}

func TestReadJSONLRejectsUnknownType(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader(`{"type":"mystery","rank":0}` + "\n")); err == nil {
		t.Fatal("unknown record type accepted")
	}
}

func TestReadAutoSniffsFormat(t *testing.T) {
	l := sampleLog()
	var csvBuf, jlBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, l); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&jlBuf, l); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadAuto("trace.CSV", &csvBuf); err != nil || got.Len() != l.Len() {
		t.Fatalf("ReadAuto csv: %v (%d segments)", err, got.Len())
	}
	if got, err := ReadAuto("trace.jsonl", &jlBuf); err != nil || got.Len() != l.Len() {
		t.Fatalf("ReadAuto jsonl: %v", err)
	}
}

// TestAppendMerges checks multi-file logs merge and still validate.
func TestAppendMerges(t *testing.T) {
	a := sampleLog()
	b := &Log{Segments: []Segment{
		{Rank: 2, File: "/data/c", Op: ioreq.OpRead, Offset: 0, Length: 1024, Start: 0.6, End: 0.61},
	}}
	b.SynthesizeCounters()
	a.Append(b)
	if err := a.Validate(); err != nil {
		t.Fatalf("merged log rejected: %v", err)
	}
	if len(a.Ranks()) != 3 {
		t.Fatalf("ranks = %v, want 3 distinct", a.Ranks())
	}
}
