package cluster

import "github.com/hydrogen-sim/hydrogen/internal/chash"

// Router places content-addressed job IDs onto members by rendezvous
// hashing. Every peer computes the same ranking from the same static
// member list, so ownership needs no coordination: the highest-ranked
// member owns the job, and only the owner ever runs it.
type Router struct {
	ids  []string
	byID map[string]Member
}

// NewRouter builds a router over the full member list (self included —
// ownership is a property of the job, not of who is asking).
func NewRouter(members []Member) *Router {
	r := &Router{
		ids:  make([]string, len(members)),
		byID: make(map[string]Member, len(members)),
	}
	for i, m := range members {
		r.ids[i] = m.ID
		r.byID[m.ID] = m
	}
	return r
}

// Rank returns the members ordered by descending rendezvous score for
// jobID; the head is the owner.
func (r *Router) Rank(jobID string) []Member {
	ranked := chash.RankStrings(jobID, r.ids)
	out := make([]Member, len(ranked))
	for i, id := range ranked {
		out[i] = r.byID[id]
	}
	return out
}

// Owner returns the member that owns jobID, the head of Rank(jobID),
// without building the ranking.
func (r *Router) Owner(jobID string) Member {
	id, _ := chash.OwnerString(jobID, r.ids)
	return r.byID[id]
}
