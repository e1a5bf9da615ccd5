package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/tracetest"
)

// The subset endpoint accepts every hot-path mode; an unknown mode is
// a client error (400 bad_request), not a pipeline failure.
func TestSubsetModes(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	fp := upload(t, h, streamBody(t, tracetest.Tiny()))

	for _, mode := range []string{"", "exact", "bucketed"} {
		body := fmt.Sprintf(`{"workload":%q,"mode":%q}`, fp, mode)
		rec := do(h, "POST", "/v1/subset", []byte(body))
		if rec.Code != http.StatusOK {
			t.Fatalf("mode %q: %d: %s", mode, rec.Code, rec.Body)
		}
		var resp SubsetResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.SubsetFrames) == 0 || resp.SizeRatio <= 0 {
			t.Errorf("mode %q: degenerate response %+v", mode, resp)
		}
	}

	for _, mode := range []string{"turbo", "sampled", "streaming"} {
		rec := do(h, "POST", "/v1/subset", []byte(fmt.Sprintf(`{"workload":%q,"mode":%q}`, fp, mode)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("unknown mode %q: %d, want 400 (%s)", mode, rec.Code, rec.Body)
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatal(err)
		}
		if eb.Class != "bad_request" {
			t.Errorf("unknown mode %q class = %q, want bad_request", mode, eb.Class)
		}
	}
}
