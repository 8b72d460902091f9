package durable

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// snapshotPrefix namespaces snapshot objects inside a BlobStore.
const snapshotPrefix = "snap-"

// snapshotEnvelope wraps a snapshot body with the WAL position it covers:
// replay resumes at Seq+1.
type snapshotEnvelope struct {
	Version int             `json:"version"`
	Seq     uint64          `json:"seq"`
	State   json.RawMessage `json:"state"`
}

// snapshotKey names the object for a snapshot covering sequences <= seq. The
// zero-padded decimal keeps List's lexicographic order equal to seq order.
func snapshotKey(seq uint64) string {
	return fmt.Sprintf("%s%016d.json", snapshotPrefix, seq)
}

// snapshotSeq parses a snapshot key back to its sequence (ok=false for
// foreign objects).
func snapshotSeq(key string) (uint64, bool) {
	if !strings.HasPrefix(key, snapshotPrefix) || !strings.HasSuffix(key, ".json") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(key, snapshotPrefix), ".json"), 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// WriteSnapshot persists state as the snapshot covering WAL sequences <= seq
// and returns its key. Once no older snapshot is retained (PruneSnapshots), the
// caller may TruncateBefore(seq+1).
func WriteSnapshot(ctx context.Context, store BlobStore, seq uint64, state any) (string, error) {
	raw, err := json.Marshal(state)
	if err != nil {
		return "", err
	}
	body, err := json.Marshal(snapshotEnvelope{Version: 1, Seq: seq, State: raw})
	if err != nil {
		return "", err
	}
	key := snapshotKey(seq)
	if err := store.Put(ctx, key, bytes.NewReader(body)); err != nil {
		return "", err
	}
	return key, nil
}

// LatestSnapshot finds the newest snapshot that decodes cleanly, unmarshals
// its state into `into`, and returns the WAL sequence it covers. ok=false
// means no usable snapshot exists (recovery starts from an empty engine and
// the full log). A newest snapshot that is corrupt is skipped in favor of the
// next older one — a half-damaged store degrades to more replay, not to a
// refusal to start; damage is reported through the returned skipped count so
// the caller can log it.
func LatestSnapshot(ctx context.Context, store BlobStore, into any) (seq uint64, ok bool, skipped int, err error) {
	keys, err := store.List(ctx, snapshotPrefix)
	if err != nil {
		return 0, false, 0, err
	}
	for i := len(keys) - 1; i >= 0; i-- {
		sseq, isSnap := snapshotSeq(keys[i])
		if !isSnap {
			continue
		}
		env, derr := readSnapshot(ctx, store, keys[i])
		if derr == nil && env.Seq == sseq {
			if uerr := json.Unmarshal(env.State, into); uerr == nil {
				return env.Seq, true, skipped, nil
			}
		}
		skipped++
	}
	return 0, false, skipped, nil
}

func readSnapshot(ctx context.Context, store BlobStore, key string) (*snapshotEnvelope, error) {
	rc, err := store.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	body, err := io.ReadAll(io.LimitReader(rc, 1<<30))
	if err != nil {
		return nil, err
	}
	env := new(snapshotEnvelope)
	if err := json.Unmarshal(body, env); err != nil {
		return nil, err
	}
	if env.Version != 1 {
		return nil, fmt.Errorf("durable: unknown snapshot version %d", env.Version)
	}
	return env, nil
}

// PruneSnapshots deletes all but the newest keep snapshots and returns the
// sequence the oldest one it keeps covers (0 with none kept): the log must
// keep every record after it, for a recovery that falls back that far.
func PruneSnapshots(ctx context.Context, store BlobStore, keep int) (oldest uint64, err error) {
	if keep < 1 {
		keep = 1
	}
	keys, err := store.List(ctx, snapshotPrefix)
	if err != nil {
		return 0, err
	}
	var snaps []string
	for _, k := range keys {
		if _, isSnap := snapshotSeq(k); isSnap {
			snaps = append(snaps, k)
		}
	}
	if len(snaps) > keep {
		for _, k := range snaps[:len(snaps)-keep] {
			if err := store.Delete(ctx, k); err != nil {
				return 0, err
			}
		}
		snaps = snaps[len(snaps)-keep:]
	}
	if len(snaps) > 0 {
		oldest, _ = snapshotSeq(snaps[0])
	}
	return oldest, nil
}
