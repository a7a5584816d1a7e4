package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWriteJSONUnencodable checks that a value encoding/json refuses turns
// into a 500 ErrorResponse, and that an encodable one keeps its status and
// the encoder's trailing newline.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, LinksResponse{Links: []LinkState{{Variance: math.NaN()}}})
	var er ErrorResponse
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &er) != nil ||
		!strings.Contains(er.Error, "encode response") {
		t.Fatalf("NaN body: %d %q, want a 500 ErrorResponse", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusAccepted, HealthResponse{Status: "ok", Topologies: 2})
	if rec.Code != http.StatusAccepted || rec.Body.String() != `{"status":"ok","topologies":2}`+"\n" ||
		rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("encodable body: %d %q %v", rec.Code, rec.Body, rec.Header())
	}
}
