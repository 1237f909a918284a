package serve

import "time"

// progressData is the payload of a "progress" server-sent event.
type progressData struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

func (st *jobStore) get(id string) (*job, bool) { return st.all.Get(id) }

func (st *jobStore) evict(now time.Time, ttl time.Duration, maxJobs int) int {
	return st.all.Evict(now, ttl, maxJobs)
}
