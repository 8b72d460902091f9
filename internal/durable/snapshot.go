package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// snapshotPrefix names snapshot files inside the snapshot directory.
const snapshotPrefix = "snap-"

// snapshotEnvelope wraps a snapshot body with the WAL position it covers:
// replay resumes at Seq+1.
type snapshotEnvelope struct {
	Version int             `json:"version"`
	Seq     uint64          `json:"seq"`
	State   json.RawMessage `json:"state"`
}

// snapshotName names the file for a snapshot covering sequences <= seq. The
// zero-padded decimal keeps the directory's name order equal to seq order.
func snapshotName(seq uint64) string {
	return fmt.Sprintf("%s%016d.json", snapshotPrefix, seq)
}

// snapshotSeq parses a snapshot file name back to its sequence (ok=false for
// any other file).
func snapshotSeq(name string) (uint64, bool) {
	num, prefixed := strings.CutPrefix(name, snapshotPrefix)
	num, suffixed := strings.CutSuffix(num, ".json")
	if !prefixed || !suffixed {
		return 0, false
	}
	seq, err := strconv.ParseUint(num, 10, 64)
	return seq, err == nil
}

// listSnapshots returns the sequences of the snapshots in dir, oldest first.
// Only the names snapshotName writes count, so name order is sequence order.
func listSnapshots(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := snapshotSeq(e.Name()); ok && e.Name() == snapshotName(seq) {
			seqs = append(seqs, seq)
		}
	}
	return seqs, nil
}

// writeSnapshot persists state as the snapshot covering WAL sequences <= seq
// and returns its file name. The body goes to a temporary file that is
// fsynced and renamed into place, and the directory is fsynced after the
// rename, so a crash leaves either no snapshot or the whole one — never a
// partial file, and never a rename a power loss takes back after the log
// prefix it covers was truncated.
func writeSnapshot(dir string, seq uint64, state any) (string, error) {
	raw, err := json.Marshal(state)
	if err != nil {
		return "", err
	}
	body, err := json.Marshal(snapshotEnvelope{Version: 1, Seq: seq, State: raw})
	if err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name()) // a no-op once renamed
	_, err = tmp.Write(body)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	name := snapshotName(seq)
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err == nil {
		err = syncDir(dir)
	}
	return name, err
}

// latestSnapshot finds the newest snapshot in dir that decodes cleanly,
// unmarshals its state into `into`, and returns the WAL sequence it covers.
// ok=false means no usable snapshot exists (recovery starts from an empty
// engine and the full log). A newest snapshot that is corrupt is skipped in
// favor of the next older one — a half-damaged directory degrades to more
// replay, not to a refusal to start; damage is reported through the returned
// skipped count so the caller can log it.
func latestSnapshot(dir string, into any) (seq uint64, ok bool, skipped int, err error) {
	seqs, err := listSnapshots(dir)
	if err != nil {
		return 0, false, 0, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		var env snapshotEnvelope
		body, err := os.ReadFile(filepath.Join(dir, snapshotName(seqs[i])))
		if err == nil && json.Unmarshal(body, &env) == nil && env.Version == 1 && env.Seq == seqs[i] &&
			json.Unmarshal(env.State, into) == nil {
			return env.Seq, true, skipped, nil
		}
		skipped++
	}
	return 0, false, skipped, nil
}

// pruneSnapshots deletes all but the newest keep snapshots in dir and returns
// the sequence the oldest one it keeps covers (0 with none kept): the log
// must keep every record after it, for a recovery that falls back that far.
func pruneSnapshots(dir string, keep int) (oldest uint64, err error) {
	seqs, err := listSnapshots(dir)
	if err != nil {
		return 0, err
	}
	for ; len(seqs) > keep; seqs = seqs[1:] {
		if err := os.Remove(filepath.Join(dir, snapshotName(seqs[0]))); err != nil && !os.IsNotExist(err) {
			return 0, err
		}
	}
	if len(seqs) > 0 {
		oldest = seqs[0]
	}
	return oldest, nil
}
