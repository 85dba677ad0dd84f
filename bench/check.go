package main

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/serve/api"
)

// checkRanked verifies one ranked answer: exactly k rows, ranks 1..k,
// score descending with ties broken by ascending ID, and none of
// the user's training items (user < 0 skips the mask check; exclude < 0
// skips the query-item check).
func checkRanked(d *dataset.Dataset, user, exclude int, recs []api.Recommendation) error {
	if len(recs) != topK {
		return fmt.Errorf("%d rows, want %d", len(recs), topK)
	}
	for i, r := range recs {
		if r.Rank != i+1 {
			return fmt.Errorf("row %d has rank %d", i, r.Rank)
		}
		if i > 0 {
			prev := recs[i-1]
			if r.Score > prev.Score || (r.Score == prev.Score && r.Item <= prev.Item) {
				return fmt.Errorf("rows %d,%d out of order: (%d, %g) before (%d, %g)", i-1, i, prev.Item, prev.Score, r.Item, r.Score)
			}
		}
		if r.Item == exclude {
			return fmt.Errorf("query item %d ranked against itself", exclude)
		}
		if user >= 0 && d.InTrain(user, r.Item) {
			return fmt.Errorf("user %d was recommended training item %d", user, r.Item)
		}
	}
	return nil
}

// checkNeighbors is checkRanked for the embedding-space endpoints,
// whose rows carry (kind, id) and must not contain the anchors.
func checkNeighbors(ns []api.Neighbor, anchors ...int) error {
	if len(ns) != topK {
		return fmt.Errorf("%d neighbors, want %d", len(ns), topK)
	}
	for i, n := range ns {
		if i > 0 && n.Score > ns[i-1].Score {
			return fmt.Errorf("neighbors %d,%d out of order", i-1, i)
		}
		for _, a := range anchors {
			if n.Kind == api.KindItem && n.ID == a {
				return fmt.Errorf("anchor item %d among its own neighbors", a)
			}
		}
	}
	return nil
}
