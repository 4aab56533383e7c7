// Package fed federates multiple primary serving processes behind
// one Service: a federation map partitions the placement keyspace
// across members (each a primary engine with its own WAL and
// follower set), a RemotePrimary adapts a member's wire endpoint to
// the serve.Placement interface, and a Router serves the federation.
//
// What the router shares with an Engine is everything about which
// placement holds a node: its writes, takes, migrations, ScopeOne
// queries and node listings are the serve.ForwardTable placement
// operations, run over members where the engine runs them over
// shards. What it owns is the transport (RemotePrimary: one shared
// pipelined connection per member, address rotation after fail-over,
// epoch fencing, retries, wire-error translation onto the serve
// sentinels), the federation map, demand-region pruning — and the
// scatter: fedScatter starts every leg on the members' connections
// and gathers them on the calling goroutine, where the engine's
// serve.ScatterQuery parks a goroutine per leg on a shard queue. The
// two agree on semantics and share no logic, because each is the
// cheap way to wait on its own transport.
//
// The federation map is a versioned document: any member or router
// holding a newer version pushes it opportunistically (OpFedMap
// exchange), so promotion of one member's follower propagates to
// every router without a coordinator. Higher version always wins;
// versions are bumped by whichever router first observes a change
// (a member answering with a higher replication epoch).
package fed

import (
	"encoding/json"
	"fmt"

	"pidcan/internal/serve"
)

// Member is one federation member: a primary process (with optional
// promotable-follower fallback addresses) owning a keyspace slice.
type Member struct {
	// Index is the member's position in Map.Members — stable across
	// map versions so ids stay routable when slices move.
	Index int `json:"index"`
	// Addrs lists the member's wire addresses, primary first; later
	// entries are followers a router may rotate to after fail-over.
	Addrs []string `json:"addrs"`
	// Epoch is the member's last observed replication epoch. A
	// member answering with a higher epoch has failed over; routers
	// bump the map version when they record it.
	Epoch uint64 `json:"epoch"`
	// [Lo, Hi) is the member's slice of the 64-bit placement
	// keyspace. Hi == 0 means wrap: the slice extends to 2^64.
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
}

// Map is the federation map: a versioned partition of the placement
// keyspace across members. Routers place joins by hashing a
// sequence number into the keyspace and asking the owning member.
type Map struct {
	Version uint64   `json:"version"`
	Members []Member `json:"members"`
}

// EvenSplit builds a version-1 map dividing the keyspace evenly:
// member i owns [i*stride, (i+1)*stride), the last member wrapping
// to 2^64.
func EvenSplit(addrs [][]string) Map {
	n := uint64(len(addrs))
	if n == 0 {
		return Map{Version: 1}
	}
	stride := ^uint64(0) / n
	m := Map{Version: 1, Members: make([]Member, len(addrs))}
	for i := range addrs {
		m.Members[i] = Member{
			Index: i,
			Addrs: append([]string(nil), addrs[i]...),
			Lo:    uint64(i) * stride,
			Hi:    uint64(i+1) * stride,
		}
	}
	m.Members[len(addrs)-1].Hi = 0 // wrap
	return m
}

// Owner returns the index of the member owning key, or -1 on an
// empty map.
func (m *Map) Owner(key uint64) int {
	for i := range m.Members {
		mb := &m.Members[i]
		if key >= mb.Lo && (mb.Hi == 0 || key < mb.Hi) {
			return i
		}
	}
	if len(m.Members) > 0 {
		return len(m.Members) - 1 // out-of-slice keys land on the wrap member
	}
	return -1
}

// Encode serializes the map for an OpFedMap exchange.
func (m *Map) Encode() []byte {
	b, err := json.Marshal(m)
	if err != nil { // unreachable: Map has no unmarshalable fields
		panic(err)
	}
	return b
}

// DecodeMap parses an OpFedMap blob.
func DecodeMap(blob []byte) (Map, error) {
	var m Map
	if len(blob) == 0 {
		return m, fmt.Errorf("fed: empty map blob")
	}
	if err := json.Unmarshal(blob, &m); err != nil {
		return m, fmt.Errorf("fed: decode map: %w", err)
	}
	return m, nil
}

// Merge folds other into m, keeping whichever version is higher.
// Reports whether m changed.
func (m *Map) Merge(other Map) bool {
	if other.Version <= m.Version {
		return false
	}
	*m = other
	return true
}

// Federation ids tag the owning member into bits 48..63 of a
// serve.GlobalID (member+1, so tag 0 still means "not federated").
// This caps a federation at 65535 members and each member at 2^16
// shards — both comfortably above any deployment this codebase
// targets — and keeps member-local ids bit-identical to what the
// member's own engine issued.
const (
	fedTagShift = 48
	fedTagMask  = uint64(0xFFFF) << fedTagShift
)

// ID tags a member-local id with its owning member.
func ID(member int, local serve.GlobalID) serve.GlobalID {
	return serve.GlobalID(uint64(member+1)<<fedTagShift | uint64(local)&^fedTagMask)
}

// SplitID untags a federation id. member is -1 when id carries no
// federation tag.
func SplitID(id serve.GlobalID) (member int, local serve.GlobalID) {
	tag := uint64(id) & fedTagMask >> fedTagShift
	return int(tag) - 1, serve.GlobalID(uint64(id) &^ fedTagMask)
}

// memberOf is the router's forwarding-table owner function: the index
// of the member a federation id is tagged with (-1: untagged).
func memberOf(id serve.GlobalID) int {
	member, _ := SplitID(id)
	return member
}

// splitmix64 spreads a join sequence number over the keyspace so
// EvenSplit slices receive joins in proportion to their width.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
