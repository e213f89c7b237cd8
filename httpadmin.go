package lbsq

import (
	"encoding/json"
	"net/http"
)

// Admin endpoints of the durable store:
//
//	POST /v1/admin/checkpoint → JSON storageStatsWire after the flush
//	GET  /v1/admin/storage    → JSON storageStatsWire
//
// In-memory DBs answer both with 409 conflict and the standard error
// envelope: the server is healthy, but there is no store to operate on.

// storageStatsWire is the JSON form of StorageStats.
type storageStatsWire struct {
	Dir                  string `json:"dir"`
	Generation           uint64 `json:"generation"`
	WALRecords           int64  `json:"wal_records"`
	WALBytes             int64  `json:"wal_bytes"`
	WALFsyncs            int64  `json:"wal_fsyncs"`
	WALSizeBytes         int64  `json:"wal_size_bytes"`
	SinceCheckpoint      int64  `json:"since_checkpoint"`
	Checkpoints          int64  `json:"checkpoints"`
	LastCheckpointMicros int64  `json:"last_checkpoint_us"`
	RecoveredRecords     int64  `json:"recovered_records"`
}

func toStorageWire(st StorageStats) storageStatsWire {
	return storageStatsWire{
		Dir:                  st.Dir,
		Generation:           st.Generation,
		WALRecords:           st.WALRecords,
		WALBytes:             st.WALBytes,
		WALFsyncs:            st.WALFsyncs,
		WALSizeBytes:         st.WALSizeBytes,
		SinceCheckpoint:      st.SinceCheckpoint,
		Checkpoints:          st.Checkpoints,
		LastCheckpointMicros: st.LastCheckpointMicros,
		RecoveredRecords:     st.RecoveredRecords,
	}
}

// registerAdminRoutes mounts the persistence admin endpoints on the v1
// mux using Go 1.22 method patterns.
func (db *DB) registerAdminRoutes(mux *http.ServeMux) {
	handle := func(pattern, label string, h http.HandlerFunc) {
		mux.Handle(pattern, instrumentHTTP(db.reg, label, h))
	}
	handle("POST /v1/admin/checkpoint", "/v1/admin/checkpoint", db.handleAdminCheckpoint)
	handle("GET /v1/admin/storage", "/v1/admin/storage", db.handleAdminStorage)
}

const msgNotDurable = "DB is not durable (opened without a data directory)"

func (db *DB) handleAdminCheckpoint(w http.ResponseWriter, r *http.Request) {
	if db.store == nil {
		writeJSONError(w, http.StatusConflict, msgNotDurable)
		return
	}
	if err := db.Checkpoint(r.Context()); err != nil {
		if r.Context().Err() != nil {
			writeJSONError(w, statusCanceled, "client canceled request")
			return
		}
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	st, _ := db.StorageStats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(toStorageWire(st))
}

func (db *DB) handleAdminStorage(w http.ResponseWriter, r *http.Request) {
	st, ok := db.StorageStats()
	if !ok {
		writeJSONError(w, http.StatusConflict, msgNotDurable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(toStorageWire(st))
}
