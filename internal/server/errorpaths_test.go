package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"coflowsched/internal/coflow"
	"coflowsched/internal/graph"
	"coflowsched/internal/online"
	"coflowsched/internal/telemetry"
)

// newTestServer starts a daemon on an httptest listener. Callers get both so
// they can hit the API raw (the typed Client hides status codes).
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Network:     graph.Star(4, 1),
		Policy:      online.SEBFOnline{},
		EpochLength: 1,
		TimeScale:   100,
		Logger:      telemetry.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// decodeError asserts a JSON error body and returns its message.
func decodeError(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error response is not the JSON error shape: %v", err)
	}
	if e.Error == "" {
		t.Fatalf("error response has an empty message")
	}
	return e.Error
}

// TestAdmitErrorPaths covers the malformed-request surface of
// POST /v1/coflows: every rejection must be a 400 with a JSON error body and
// must not count as an admission.
func TestAdmitErrorPaths(t *testing.T) {
	s, ts := newTestServer(t)
	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/coflows", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		return resp
	}
	cases := map[string]string{
		"malformed JSON":    `{"name": "broken"`,
		"unknown field":     `{"name":"x","weight":1,"unknown_field":true,"flows":[{"source":0,"dest":1,"size":1}]}`,
		"no flows":          `{"name":"x","weight":1,"flows":[]}`,
		"negative size":     `{"name":"x","weight":1,"flows":[{"source":0,"dest":1,"size":-2}]}`,
		"same endpoints":    `{"name":"x","weight":1,"flows":[{"source":1,"dest":1,"size":1}]}`,
		"outside network":   `{"name":"x","weight":1,"flows":[{"source":0,"dest":99,"size":1}]}`,
		"negative weight":   `{"name":"x","weight":-1,"flows":[{"source":0,"dest":1,"size":1}]}`,
		"not JSON":          `hello`,
		"JSON wrong type":   `[1,2,3]`,
		"infinite via text": `{"name":"x","weight":1,"flows":[{"source":0,"dest":1,"size":1e999}]}`,
	}
	for name, body := range cases {
		resp := post(body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		decodeError(t, resp)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Admitted != 0 {
		t.Errorf("rejected requests were admitted: %d", st.Admitted)
	}
}

// TestCoflowLookupErrorPaths covers GET /v1/coflows/{id} misses.
func TestCoflowLookupErrorPaths(t *testing.T) {
	_, ts := newTestServer(t)
	get := func(path string) *http.Response {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		return resp
	}
	if resp := get("/v1/coflows/12345"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", resp.StatusCode)
	} else {
		msg := decodeError(t, resp)
		if !strings.Contains(msg, "unknown coflow") {
			t.Errorf("unknown id message %q", msg)
		}
	}
	if resp := get("/v1/coflows/-7"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("negative id: status %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := get("/v1/coflows/abc"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-numeric id: status %d, want 400", resp.StatusCode)
	} else {
		decodeError(t, resp)
	}
}

// TestAdmitAfterDrain covers the shutdown path: once Drain has begun, new
// admissions are 503s with a draining message, while reads keep working.
func TestAdmitAfterDrain(t *testing.T) {
	s, ts := newTestServer(t)
	c := NewClient(ts.URL)

	// One real coflow so the drain has work to finish (hosts of the star are
	// nodes 1..4; node 0 is the switch).
	admitted, err := c.Admit(coflow.Coflow{
		Name: "t", Weight: 1,
		Flows: []coflow.Flow{{Source: 1, Dest: 2, Size: 2}},
	})
	if err != nil {
		t.Fatalf("admit before drain: %v", err)
	}
	if _, err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	resp, err := http.Post(ts.URL+"/v1/coflows", "application/json",
		strings.NewReader(`{"name":"late","weight":1,"flows":[{"source":0,"dest":1,"size":1}]}`))
	if err != nil {
		t.Fatalf("post after drain: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("admit after drain: status %d, want 503", resp.StatusCode)
	}
	msg := decodeError(t, resp)
	if !strings.Contains(msg, "draining") {
		t.Errorf("admit-after-drain message %q does not mention draining", msg)
	}

	// Reads still work after drain: the admitted coflow must report done.
	st, err := c.Coflow(admitted.ID)
	if err != nil {
		t.Fatalf("coflow status after drain: %v", err)
	}
	if !st.Done {
		t.Errorf("drained coflow not done: %+v", st)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("stats after drain: %v", err)
	}
	if stats.Admitted != 1 || stats.Completed != 1 {
		t.Errorf("post-drain stats admitted=%d completed=%d, want 1/1", stats.Admitted, stats.Completed)
	}
}
