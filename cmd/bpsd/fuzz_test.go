package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzDecodeSubmit feeds arbitrary POST /jobs bodies through the
// handler's decode and validate steps. No body may panic them. Below
// the 1 MiB cap the decoder must agree with json.Unmarshal, and the
// same body padded past the cap with JSON whitespace must be rejected
// by the cap rather than decoded.
func FuzzDecodeSubmit(f *testing.F) {
	for _, body := range []string{
		`not json`,
		`{}`,
		`{"tenant":"has space"}`,
		`{"tenant":"a","procs":-1}`,
		`{"tenant":"a","mb":-5}`,
		`{"tenant":"a","record_bytes":100}`,
		`{"tenant":"a","bps_floor":-1}`,
		`{"tenant":"a"}`,
		`{"tenant":"alpha","priority":1,"bps_floor":1e8,"procs":2,"mb":4}`,
		`{"tenant":"beta","procs":2,"mb":1,"record_bytes":4096,"write":true}`,
	} {
		f.Add([]byte(body))
	}
	const limit = 1 << 20
	pad := bytes.Repeat([]byte(" "), limit+1)
	post := func(body []byte) (jobSubmit, error) {
		var js jobSubmit
		err := decodeSubmit(httptest.NewRecorder(), httptest.NewRequest("POST", "/jobs", bytes.NewReader(body)), &js)
		return js, err
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		js, err := post(body)
		if err == nil {
			validateSubmit(js)
		}
		if len(body) > limit {
			return
		}
		var want jobSubmit
		wantErr := json.Unmarshal(body, &want)
		if (err == nil) != (wantErr == nil) || err == nil && js != want {
			t.Fatalf("decodeSubmit(%q) = %+v, %v; json.Unmarshal gives %+v, %v", body, js, err, want, wantErr)
		}

		copy(pad, body)
		_, err = post(pad)
		for i := range body {
			pad[i] = ' '
		}
		var tooBig *http.MaxBytesError
		if !errors.As(err, &tooBig) {
			t.Fatalf("a %d-byte body past the %d-byte cap gave %v, want the cap's error", len(pad), limit, err)
		}
	})
}
