package workload

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestScenarioInstancesPinned holds every catalog scenario's draw to a
// committed fingerprint: the SHA-256 of the instance's canonical JSON
// (coflow.Instance.WriteJSON: network, coflows, flows) followed by the JSON of
// its arrivals. Any change to what a scenario draws, or to the order its
// generator consumes the rng in, changes the hash, whether or not a policy's
// schedule happens to move with it. testdata/scenario_instances.sha256 lists
// one "<hex>  <name>" line per scenario, in catalog order.
func TestScenarioInstancesPinned(t *testing.T) {
	want := readFingerprints(t, "testdata/scenario_instances.sha256")
	var got []string
	for _, s := range Scenarios() {
		inst, arrivals, err := s.Build()
		if err != nil {
			t.Fatalf("%s: Build: %v", s.Name, err)
		}
		var buf bytes.Buffer
		if err := inst.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: WriteJSON: %v", s.Name, err)
		}
		if err := json.NewEncoder(&buf).Encode(arrivals); err != nil {
			t.Fatalf("%s: encode arrivals: %v", s.Name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got = append(got, hex.EncodeToString(sum[:])+"  "+s.Name)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("scenario draws drifted from the committed fingerprints\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func readFingerprints(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
