package cluster

import "github.com/hydrogen-sim/hydrogen/internal/chash"

// Router places content-addressed job IDs onto members by rendezvous
// hashing. Every peer computes the same ranking from the same static
// member list, so ownership needs no coordination: the highest-ranked
// member owns the job, and the rest of the ranking is the failover
// order when owners die.
type Router struct {
	members []Member
	ids     []string
	byID    map[string]Member
}

// NewRouter builds a router over the full member list (self included —
// ownership is a property of the job, not of who is asking).
func NewRouter(members []Member) *Router {
	r := &Router{
		members: append([]Member(nil), members...),
		ids:     make([]string, len(members)),
		byID:    make(map[string]Member, len(members)),
	}
	for i, m := range members {
		r.ids[i] = m.ID
		r.byID[m.ID] = m
	}
	return r
}

// Rank returns the members ordered by descending rendezvous score for
// jobID: the head is the owner, the tail the failover order.
func (r *Router) Rank(jobID string) []Member {
	ranked := chash.RankStrings(jobID, r.ids)
	out := make([]Member, len(ranked))
	for i, id := range ranked {
		out[i] = r.byID[id]
	}
	return out
}

// Owner returns the member that owns jobID.
func (r *Router) Owner(jobID string) Member {
	id, _ := chash.OwnerString(jobID, r.ids)
	return r.byID[id]
}

// Owns reports whether memberID is the owner of jobID.
func (r *Router) Owns(memberID, jobID string) bool {
	return r.Owner(jobID).ID == memberID
}
