package serve_test

// body_test.go drives malformed request bodies through the HTTP handlers:
// each must be a 400 that folds nothing.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"lia/serve"
)

// postRaw POSTs body verbatim and returns the status code and response.
func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// vec formats nine values, the "default" test topology's path count, with
// extra substituted for the second.
func vec(extra string) string {
	return "[-0.1," + extra + ",-0.2,-0.1,-0.3,-0.1,-0.2,-0.1,-0.05]"
}

func TestMalformedBodiesFoldNothing(t *testing.T) {
	_, _, ts := newTestServer(t)
	good := vec("-0.1")
	for _, tc := range []struct {
		path, body, want string
	}{
		{"/v1/snapshots", `{"y":` + vec("null") + `}`, `y[1]: null element`},
		{"/v1/snapshots", `{"frac":[0.9,null]}`, `frac[1]: null element`},
		{"/v1/snapshots", `{"snapshots":[{"y":` + good + `},{"frac":[0.9,null]}]}`, `snapshot 1: frac[1]: null element`},
		{"/v1/snapshots", `{"snapshots":[{"y":` + good + `},null]}`, `snapshot 1: null element`},
		{"/v1/snapshots", `{"snapshots":[{"y":` + good + `},{"y":[1,x]},{"y":[null]}]}`, `snapshot 1: offset`},
		{"/v1/snapshots", `{"y":` + good + `}{"y":` + good + `}`, `after top-level value`},
		{"/v1/snapshots", `{"y":` + good + `} x`, `after top-level value`},
		{"/v1/snapshots", `{"snapshots":[{"y":` + good, `unexpected end of JSON input`},
		{"/v1/snapshots", `{"y":` + vec("+1") + `}`, `invalid character '+'`},
		{"/v1/snapshots", `{"y":` + vec("01") + `}`, `after array element`},
		{"/v1/snapshots", `{"y":` + vec(".5") + `}`, `invalid character '.'`},
		{"/v1/snapshots", `{"y":` + vec("Inf") + `}`, `invalid character 'I'`},
		{"/v1/snapshots", `{"y":` + vec("1e400") + `}`, `out of range`},
		{"/v1/snapshots", `{"y":` + vec("-1e300") + `}`, `y[1] = -1e+300 is not a log rate`},
		{"/v1/snapshots", `{"snapshots":[{"y":` + good + `},{"y":` + vec("745.5") + `}]}`, `snapshot 1: y[1] = 745.5 is not a log rate`},
		{"/v1/snapshots", "\xef\xbb\xbf{\"y\":" + good + "}", `invalid character`},
		{"/v1/snapshots", `{"frac":[0.9],"probes":1.5}`, `not an int`},
		{"/v1/snapshots", `{"y":"-0.1"}`, `cannot decode string`},
		{"/v1/snapshots", `[]`, `cannot decode array`},
		{"/v1/snapshots", ``, `unexpected end of JSON input`},
		{"/v1/snapshots", `{"snapshots":[null]}`, `snapshot 0: null element`},
		{"/v1/infer", `{"y":` + vec("null") + `}`, `y[1]: null element`},
		{"/v1/infer", `{"y":` + good + `}{"y":` + good + `}`, `after top-level value`},
		{"/v1/infer", `{"frac":[0.9]}]`, `after top-level value`},
		{"/v1/infer", `{"y":` + vec("-1e300") + `}`, `is not a log rate`},
	} {
		code, raw := postRaw(t, ts.URL+tc.path, tc.body)
		var e serve.ErrorResponse
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("%s %q: %d %s", tc.path, tc.body, code, raw)
		}
		if code != http.StatusBadRequest || !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s %q: %d %q, want 400 naming %q", tc.path, tc.body, code, e.Error, tc.want)
		}
	}
	st := getStatus(t, ts.URL).Topologies["default"]
	if st.Snapshots != 0 || st.HTTPSnapshots != 0 || st.Inferences != 0 {
		t.Fatalf("malformed bodies folded: %+v", st)
	}

	// Trailing whitespace is allowed, and keys fold case as in encoding/json.
	code, raw := postRaw(t, ts.URL+"/v1/snapshots", `{"SNAPSHOTS":[{"Y":`+good+`},{"y":`+good+`}]}`+" \r\n\t")
	if code != http.StatusOK || !strings.Contains(string(raw), `"ingested":2`) {
		t.Fatalf("well-formed batch: %d %s", code, raw)
	}
}

// TestStreamBadRecordAfterConcatenated checks that the stream endpoint
// keeps accepting concatenated records and that a malformed record still
// names its index and the snapshots ingested before it.
func TestStreamBadRecordAfterConcatenated(t *testing.T) {
	_, _, ts := newTestServer(t)
	good := vec("-0.1")
	body := fmt.Sprintf(`{"y":%s}{"snapshots":[{"y":%s},{"y":%s}]}`+"\n"+`{"y":%s}`, good, good, good, vec("null"))
	code, raw := postRaw(t, ts.URL+"/v1/snapshots/stream", body)
	var e serve.ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("%d %s", code, raw)
	}
	if code != http.StatusBadRequest || !strings.Contains(e.Error, "stream record 2") ||
		!strings.Contains(e.Error, "y[1]: null element") || e.Ingested == nil || *e.Ingested != 3 {
		t.Fatalf("bad record: %d %s", code, raw)
	}
	if st := getStatus(t, ts.URL).Topologies["default"]; st.Snapshots != 3 {
		t.Fatalf("stream folded %d snapshots, want 3", st.Snapshots)
	}
}

// TestBodyBufferFollowsArrivedBytes checks that a unary body's buffer
// grows with the bytes that arrive: a short body that declares 16 MiB must
// not make the handler allocate anything like it, and a body longer than
// the first buffer reads whole whether its length is declared exactly, not
// at all, or short.
func TestBodyBufferFollowsArrivedBytes(t *testing.T) {
	s, _, _ := newTestServer(t)
	h := s.Handler()
	post := func(path, body string, declared int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	short := `{"y":` + vec("-0.1") + `}`
	for _, path := range []string{"/v1/snapshots", "/v1/infer"} {
		post(path, short, 16<<20)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := post(path, short, 16<<20)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
			t.Errorf("%s: a short body declaring 16 MiB allocated %d bytes (status %d)", path, got, rec.Code)
		}
	}

	const snaps = 20000 // 1.08 MB: the buffer grows twice even when declared
	long := `{"snapshots":[` + strings.Repeat(short+",", snaps-1) + short + `]}`
	for _, declared := range []int64{int64(len(long)), -1, 1} {
		rec := post("/v1/snapshots", long, declared)
		if want := fmt.Sprintf(`"ingested":%d`, snaps); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), want) {
			t.Errorf("declared %d of %d bytes: %d %s", declared, len(long), rec.Code, rec.Body)
		}
	}
}
