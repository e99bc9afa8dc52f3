package ingest

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzIngest feeds arbitrary bytes to the log parsers. Logs come from
// outside the repo, so no input may panic a parser, and a log that
// parses and validates must survive re-encoding in both formats with
// its segments (and, in JSONL, its counters) unchanged.
func FuzzIngest(f *testing.F) {
	var csvBuf, jlBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, sampleLog()); err != nil {
		f.Fatal(err)
	}
	if err := WriteJSONL(&jlBuf, sampleLog()); err != nil {
		f.Fatal(err)
	}
	f.Add("trace.CSV", csvBuf.Bytes())
	f.Add("trace.jsonl", jlBuf.Bytes())
	f.Add("t.csv", []byte("# a comment\nrank,file,op,offset,length,start_s,end_s\n# another\n0,f,read,0,512,0,0.1\n"))
	f.Add("t.jsonl", []byte(`{"type":"mystery","rank":0}`+"\n"))
	for _, bad := range []string{
		"",
		"a,b,c\n",
		"rank,file,op,offset,length,start_s,end_s\nx,f,read,0,1,0,1\n",
		"rank,file,op,offset,length,start_s,end_s\n0,f,chmod,0,1,0,1\n",
		"rank,file,op,offset,length,start_s,end_s\n0,f,read,zero,1,0,1\n",
	} {
		f.Add("t.csv", []byte(bad))
	}
	f.Fuzz(func(t *testing.T, name string, data []byte) {
		for _, read := range []func() (*Log, error){
			func() (*Log, error) { return ReadCSV(bytes.NewReader(data)) },
			func() (*Log, error) { return ReadJSONL(bytes.NewReader(data)) },
			func() (*Log, error) { return ReadAuto(name, bytes.NewReader(data)) },
		} {
			l, err := read()
			if err != nil || l.Validate() != nil {
				continue // malformed logs may be rejected, not panic
			}
			checkRoundTrip(t, l)
		}
	})
}

// checkRoundTrip re-encodes a valid log as CSV and as JSONL and requires
// each to parse back to the same log.
func checkRoundTrip(t *testing.T, l *Log) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, l); err != nil {
		t.Fatalf("WriteCSV of a valid log: %v", err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("re-reading WriteCSV output: %v", err)
	}
	if !reflect.DeepEqual(back.Segments, l.Segments) {
		t.Fatalf("CSV round trip changed segments:\n got %+v\nwant %+v", back.Segments, l.Segments)
	}

	buf.Reset()
	if err := WriteJSONL(&buf, l); err != nil {
		t.Fatalf("WriteJSONL of a valid log: %v", err)
	}
	if back, err = ReadJSONL(&buf); err != nil {
		t.Fatalf("re-reading WriteJSONL output: %v", err)
	}
	if !reflect.DeepEqual(back.Segments, l.Segments) {
		t.Fatalf("JSONL round trip changed segments:\n got %+v\nwant %+v", back.Segments, l.Segments)
	}
	if !reflect.DeepEqual(back.Counters, l.Counters) {
		t.Fatalf("JSONL round trip changed counters:\n got %+v\nwant %+v", back.Counters, l.Counters)
	}
}
