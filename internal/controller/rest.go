package controller

import (
	"encoding/json"
	"net/http"
)

// RESTHandler serves the controller's versioned /v1 HTTP API
// (restv1.go, wire types in internal/api).
func (c *Controller) RESTHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/updates", c.handleV1SubmitBatch)
	mux.HandleFunc("GET /v1/updates", c.handleV1Jobs)
	mux.HandleFunc("GET /v1/updates/{id}", c.handleV1JobStatus)
	mux.HandleFunc("GET /v1/updates/{id}/watch", c.handleV1Watch)
	mux.HandleFunc("POST /v1/verify", c.handleV1Verify)
	mux.HandleFunc("POST /v1/explore", c.handleV1Explore)
	mux.HandleFunc("POST /v1/policies", c.handleV1Policies)
	mux.HandleFunc("GET /v1/healthz", c.handleV1Healthz)
	mux.HandleFunc("GET /v1/switches", c.handleSwitches)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // response writer errors are the client's problem
}

// TwoPhaseTag is the VLAN id the REST layer uses to mark the new
// policy version in two-phase updates.
const TwoPhaseTag uint16 = 2016

func (c *Controller) handleSwitches(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, c.Datapaths())
}
