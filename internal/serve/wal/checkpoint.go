package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// NodeState is one alive node in a shard checkpoint.
type NodeState struct {
	Node  uint32
	Avail []float64
}

// ShardState is one shard's logical state at a checkpoint boundary:
// everything recovery needs to rebuild the shard's backend through
// the live apply path (joins up to NextID, leaves of the dead ids,
// availability updates for the alive ones).
type ShardState struct {
	Shard int
	// NextID is the next local id the backend would assign — the
	// initial population plus every join ever applied.
	NextID uint32
	// Nodes is the alive set with availability, ascending by id.
	Nodes []NodeState
	// FirstSeg is the first log segment to replay on top of this
	// state: the segment the shard rotated onto at capture time.
	FirstSeg uint64
}

// ForwardState is the flattened GlobalID forwarding table.
type ForwardState struct {
	// Next is the single-step forwarding map (chains allowed).
	Next map[uint64]uint64
	// Ext maps physical ids back to external ids.
	Ext map[uint64]uint64
	// Aliases lists the reclaimable former physical ids per external
	// id. Expiry clocks restart on recovery.
	Aliases map[uint64][]uint64
}

// Checkpoint is the engine-wide durable state between log segments.
type Checkpoint struct {
	Seq uint64
	// Epoch is the replication epoch the checkpoint was captured
	// under (0 on pre-replication checkpoints; serving starts at 1).
	// Promotion seals a new epoch by checkpointing under it.
	Epoch uint64
	// Configuration guard: recovery refuses a checkpoint taken under
	// an incompatible engine shape.
	Shards        int
	NodesPerShard int
	Seed          uint64
	Dims          int

	ShardStates []ShardState
	Fwd         ForwardState
	// Round-robin counters (join placement, consistent-query routing).
	NextShard, NextQuery uint64
	// Counters carries the cumulative Stats counters by name.
	Counters map[string]uint64
}

const ckptMagic = "PIDCKPT1"

// CheckpointPath returns the path of checkpoint seq under dir.
func CheckpointPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%d.ckpt", seq))
}

// checkpointSeqs lists the checkpoint sequence numbers in dir,
// ascending.
func checkpointSeqs(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		n, err := strconv.ParseUint(name[11:len(name)-5], 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, n)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// Image encodes the checkpoint as its framed file bytes (magic +
// CRC + gob payload) — what SaveRaw writes and replication ships,
// from one encoding.
func (c *Checkpoint) Image() ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(c); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.WriteString(ckptMagic)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload.Bytes(), crcTable))
	buf.Write(crc[:])
	buf.Write(payload.Bytes())
	return buf.Bytes(), nil
}

// Decode verifies and decodes a checkpoint image (the framed file
// bytes, as SaveRaw writes them and replication ships them).
func Decode(data []byte) (*Checkpoint, error) {
	if len(data) < len(ckptMagic)+4 || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("wal: not a checkpoint image")
	}
	crc := binary.LittleEndian.Uint32(data[len(ckptMagic):])
	payload := data[len(ckptMagic)+4:]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, fmt.Errorf("wal: checkpoint checksum mismatch")
	}
	var c Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&c); err != nil {
		return nil, err
	}
	return &c, nil
}

// SaveRaw writes a framed checkpoint image (Checkpoint.Image) durably
// under dir as checkpoint seq: written to a temp file, fsynced, renamed
// into place and the directory synced, so a crash never leaves a
// half-written checkpoint under the final name. The primary saves its
// own image with it and a follower the image it was shipped, so the
// two files match byte for byte.
func SaveRaw(dir string, seq uint64, data []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := CheckpointPath(dir, seq)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return path, nil
}

// loadCheckpoint reads and verifies one checkpoint file.
func loadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("wal: %s: %w", path, err)
	}
	return c, nil
}

// LoadLatest returns the newest checkpoint in dir that decodes and
// verifies, or (nil, nil) when none exists. Invalid files (a crash
// mid-save under a stale temp name cannot produce one, but disk
// corruption can) are skipped in favor of the next-newest.
func LoadLatest(dir string) (*Checkpoint, error) {
	seqs, err := checkpointSeqs(dir)
	if err != nil {
		return nil, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		c, err := loadCheckpoint(CheckpointPath(dir, seqs[i]))
		if err == nil {
			return c, nil
		}
	}
	return nil, nil
}

// RemoveCheckpointsBelow deletes checkpoints numbered < seq, plus
// any leftover temp files.
func RemoveCheckpointsBelow(dir string, seq uint64) error {
	seqs, err := checkpointSeqs(dir)
	if err != nil {
		return err
	}
	for _, s := range seqs {
		if s < seq {
			if err := os.Remove(CheckpointPath(dir, s)); err != nil {
				return err
			}
		}
	}
	ents, _ := os.ReadDir(dir)
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".ckpt.tmp") {
			os.Remove(filepath.Join(dir, ent.Name()))
		}
	}
	return nil
}
