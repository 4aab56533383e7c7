// Package fed federates multiple primary serving processes behind
// one Service: each member is a primary engine with its own WAL and
// follower set, a RemotePrimary adapts a member's wire endpoint to
// the serve.Placement interface, and a Router serves the federation.
//
// What the router shares with an Engine is everything about which
// placement holds a node: its writes, takes, migrations, consistent
// queries and node listings are the serve.ForwardTable placement
// operations, run over members where the engine runs them over
// shards. A consistent query is one protocol leg against one member,
// round-robin, as on an engine it is one leg against one shard. What
// the router owns is the transport (RemotePrimary: one shared
// pipelined connection per member, address rotation after fail-over,
// epoch fencing, retries, wire-error translation onto the serve
// sentinels), demand-region pruning — and the snapshot query's member
// gather: fedScatter starts every leg on the members' connections and
// gathers them on the calling goroutine under one deadline, the one
// scatter-gather in the stack.
//
// The federation map is configuration plus observation: the member
// list and each member's addresses are what the router was started
// with, and a member's replication epoch is whatever the router last
// read off that member's own responses (every wire response carries
// it in the frame header). Nothing is pushed to, stored on or pulled
// from members, so any number of routers may front the same members:
// each converges on a promotion by itself, from the first response
// the promoted follower sends it. (What stays private to a router is
// its forwarding table and its summaries' write-dirtying: a node is
// migrated through one router, and another router's write can go
// unseen by a pruned scatter for up to SummaryTTL.)
package fed

import "pidcan/internal/serve"

// Member is the router's view of one federation member: a primary
// process with optional promotable-follower fallback addresses.
type Member struct {
	// Index is the member's position in Config.Members, and the tag
	// federation ids carry (see ID).
	Index int `json:"index"`
	// Addrs lists the member's wire addresses, primary first; later
	// entries are followers a router may rotate to after fail-over.
	Addrs []string `json:"addrs"`
	// Epoch is the highest replication epoch the member has answered
	// with (0: not heard from yet). A rise means the member failed
	// over; the router stamps it into the member's write frames.
	Epoch uint64 `json:"epoch"`
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
