package trace

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"bps/internal/sim"
)

func TestBlocksOf(t *testing.T) {
	cases := []struct {
		bytes, want int64
	}{
		{0, 0}, {-5, 0}, {1, 1}, {511, 1}, {512, 1}, {513, 2}, {4096, 8},
	}
	for _, c := range cases {
		if got := BlocksOf(c.bytes); got != c.want {
			t.Errorf("BlocksOf(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestRecordHelpers(t *testing.T) {
	r := Record{PID: 3, Blocks: 8, Start: 100, End: 350}
	if r.Duration() != 250 {
		t.Errorf("Duration = %v", r.Duration())
	}
	if r.Bytes() != 8*512 {
		t.Errorf("Bytes = %d", r.Bytes())
	}
}

func TestCollectorAndGather(t *testing.T) {
	c1, c2 := NewCollector(1), NewCollector(2)
	c1.Record(8, 0, 100)
	c1.Record(16, 100, 300)
	c2.Record(4, 50, 150)
	if len(c1.Records()) != 2 || c1.PID() != 1 {
		t.Fatalf("collector state: len=%d pid=%d", len(c1.Records()), c1.PID())
	}
	g := Gather(c1, c2)
	if len(g.Records()) != 3 {
		t.Fatalf("gathered %d records", len(g.Records()))
	}
	if g.TotalBlocks() != 28 {
		t.Fatalf("TotalBlocks = %d, want 28", g.TotalBlocks())
	}
}

// TestGatherAllocatesOnce: Gather sizes the merged slice from the
// collectors' lengths up front, so merging four non-empty collectors
// costs the Global plus one records allocation, and keeps every record
// in collector order.
func TestGatherAllocatesOnce(t *testing.T) {
	cs := make([]*Collector, 4)
	var want []Record
	for i := range cs {
		cs[i] = NewCollector(int64(i))
		for j := 0; j <= 5*i+3; j++ {
			cs[i].Record(int64(j+1), sim.Time(j), sim.Time(j+1))
		}
		want = append(want, cs[i].Records()...)
	}
	if got := Gather(cs...).Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Gather = %v, want %v", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { Gather(cs...) }); allocs > 2 {
		t.Fatalf("Gather over 4 collectors made %v allocations, want <= 2", allocs)
	}
}

// TestCollectorGrow: a collector grown by n records n more accesses
// in the room it reserved, and records them as an ungrown one does.
func TestCollectorGrow(t *testing.T) {
	grown, plain := NewCollector(3), NewCollector(3)
	grown.Grow(50)
	reserved := cap(grown.Records())
	for j := 0; j < 50; j++ {
		grown.Record(int64(j), sim.Time(j), sim.Time(2*j))
		plain.Record(int64(j), sim.Time(j), sim.Time(2*j))
	}
	if reserved < 50 || cap(grown.Records()) != reserved {
		t.Fatalf("Grow(50) reserved %d records, then 50 records left capacity %d", reserved, cap(grown.Records()))
	}
	if !reflect.DeepEqual(grown.Records(), plain.Records()) {
		t.Fatalf("grown collector recorded %v, want %v", grown.Records(), plain.Records())
	}
}

func TestSortByStart(t *testing.T) {
	g := FromRecords([]Record{
		{PID: 1, Start: 300, End: 400},
		{PID: 2, Start: 100, End: 150},
		{PID: 3, Start: 100, End: 120},
		{PID: 1, Start: 100, End: 120},
	})
	g.SortByStart()
	r := g.Records()
	// Sorted by start, ties by end then PID.
	if r[0].PID != 1 || r[1].PID != 3 || r[2].PID != 2 || r[3].Start != 300 {
		t.Fatalf("sorted order wrong: %+v", r)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	recs := []Record{
		{PID: 1, Blocks: 128, Start: 0, End: 5 * sim.Millisecond},
		{PID: 2, Blocks: 1, Start: sim.Second, End: sim.Second + 10},
		{PID: -3, Blocks: math.MaxInt64, Start: 0, End: sim.MaxTime},
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != len(recs)*RecordSize {
		t.Fatalf("encoded %d bytes, want %d (32 B/record per paper §III.C)", buf.Len(), len(recs)*RecordSize)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip: got %+v", got)
	}
}

func TestBinaryTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, []Record{{PID: 1, Blocks: 1, Start: 0, End: 1}}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:RecordSize-5]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated input decoded without error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	recs := []Record{
		{PID: 1, Blocks: 128, Start: 0, End: 5000},
		{PID: 7, Blocks: 42, Start: 123, End: 456},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip: got %+v", got)
	}
}

func TestCSVBadInput(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("nope,really\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	if _, err := ReadCSV(strings.NewReader("pid,blocks,start_ns,end_ns\n1,x,2,3\n")); err == nil {
		t.Fatal("non-numeric field accepted")
	}
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted (missing header)")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	recs := []Record{
		{PID: 1, Blocks: 128, Start: 0, End: 5000},
		{PID: 2, Blocks: 9, Start: 77, End: 99},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip: got %+v", got)
	}
}

func TestJSONLBadInput(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"pid\": }\n")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// Property: binary round trip is the identity for arbitrary records.
func TestBinaryRoundTripProperty(t *testing.T) {
	prop := func(pids, blocks []int64, starts, durs []uint32) bool {
		n := len(pids)
		for _, s := range [][]int{{len(blocks)}, {len(starts)}, {len(durs)}} {
			if s[0] < n {
				n = s[0]
			}
		}
		recs := make([]Record, n)
		for i := 0; i < n; i++ {
			recs[i] = Record{
				PID:    pids[i],
				Blocks: blocks[i],
				Start:  sim.Time(starts[i]),
				End:    sim.Time(starts[i]) + sim.Time(durs[i]),
			}
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, recs); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(recs) {
			return len(recs) == 0 && len(got) == 0
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: CSV and JSONL agree with binary for arbitrary valid records.
func TestCodecAgreementProperty(t *testing.T) {
	prop := func(seed []uint16) bool {
		recs := make([]Record, len(seed))
		for i, s := range seed {
			recs[i] = Record{
				PID:    int64(s % 16),
				Blocks: int64(s%1000) + 1,
				Start:  sim.Time(s) * 100,
				End:    sim.Time(s)*100 + sim.Time(s%997) + 1,
			}
		}
		var b1, b2, b3 bytes.Buffer
		if WriteBinary(&b1, recs) != nil || WriteCSV(&b2, recs) != nil || WriteJSONL(&b3, recs) != nil {
			return false
		}
		g1, e1 := ReadBinary(&b1)
		g2, e2 := ReadCSV(&b2)
		g3, e3 := ReadJSONL(&b3)
		if e1 != nil || e2 != nil || e3 != nil {
			return false
		}
		if len(g1) != len(recs) || len(g2) != len(recs) || len(g3) != len(recs) {
			return len(recs) == 0
		}
		for i := range recs {
			if g1[i] != recs[i] || g2[i] != recs[i] || g3[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestTraceFootprint pins the paper's overhead claim: 65535 records fit in
// about 3 MB (they fit in exactly 2 MiB at 32 B each).
func TestTraceFootprint(t *testing.T) {
	recs := make([]Record, 65535)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 65535*32 {
		t.Fatalf("65535 records encode to %d bytes", buf.Len())
	}
	if buf.Len() > 3<<20 {
		t.Fatalf("trace footprint %d exceeds the paper's ~3 MB bound", buf.Len())
	}
}
