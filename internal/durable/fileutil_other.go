//go:build !linux

package durable

import "os"

// fdatasync falls back to a full fsync where the data-only variant is not
// available.
func fdatasync(f *os.File) error {
	return f.Sync()
}
