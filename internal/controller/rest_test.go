package controller

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tsu/internal/api"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

func restTestbed(t *testing.T) (*testbed, *httptest.Server) {
	t.Helper()
	tb := newTestbed(t, topo.Fig1(), nil)
	srv := httptest.NewServer(tb.ctrl.RESTHandler())
	t.Cleanup(srv.Close)
	return tb, srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// paperUpdate is the paper's REST update message (§2) — old route, new
// route, waypoint, flow — as raw JSON in its own field names, wrapped
// as the one entry of a /v1 batch. Pinning the raw bytes (rather than
// marshalling api.FlowUpdate) keeps the paper's schema on the wire.
func paperUpdate(fields string) string {
	return `{"updates": [{` + fields + `}]}`
}

const fig1PaperFields = `"oldpath": [1, 2, 3, 4, 5, 6, 12], "newpath": [1, 7, 8, 3, 9, 10, 11, 12], "wp": 3, "nw_dst": "10.0.0.2"`

func postRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// waitJobREST polls GET /v1/updates/{id} until the job is terminal.
func waitJobREST(t *testing.T, srv *httptest.Server, id int) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		var st api.JobStatus
		if code := getJSON(t, fmt.Sprintf("%s/v1/updates/%d", srv.URL, id), &st); code != http.StatusOK {
			t.Fatalf("status code %d", code)
		}
		if st.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRESTFullUpdateFlow drives the paper's workflow end to end over
// REST: bring up the old policy, submit the paper's update message,
// poll it to completion, and read back the job list and switch list.
func TestRESTFullUpdateFlow(t *testing.T) {
	tb, srv := restTestbed(t)
	if resp, body := postJSON(t, srv.URL+"/v1/policies", api.PolicyRequest{
		Path: []uint64{1, 2, 3, 4, 5, 6, 12}, NWDst: FlowIPForTest, Host: "h2",
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("policy: %d %s", resp.StatusCode, body)
	}

	resp, body := postRaw(t, srv.URL+"/v1/updates", paperUpdate(fig1PaperFields))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("update: %d %s", resp.StatusCode, body)
	}
	var br api.BatchUpdateResponse
	decodeInto(t, body, &br)
	if len(br.Updates) != 1 {
		t.Fatalf("accepted %d updates, want 1", len(br.Updates))
	}
	acc := br.Updates[0]
	if acc.Algorithm != "wayup" {
		t.Fatalf("default algorithm = %q, want wayup (waypoint present)", acc.Algorithm)
	}
	if len(acc.Rounds) == 0 {
		t.Fatal("no rounds returned")
	}

	st := waitJobREST(t, srv, acc.ID)
	if st.State != "done" {
		t.Fatalf("job failed: %+v", st)
	}
	if len(st.Rounds) != len(acc.Rounds) {
		t.Fatalf("status rounds %d, schedule rounds %d", len(st.Rounds), len(acc.Rounds))
	}
	if st.TotalMicros <= 0 {
		t.Fatal("total time missing")
	}

	// Data plane follows the new path now, with one rule at the
	// ingress.
	res := tb.fabric.Inject(1, nwDstOf(FlowIPForTest), 64)
	if res.Outcome != switchsim.ProbeDelivered || !res.Visited.Equal(topo.Fig1NewPath) {
		t.Fatalf("post-REST-update probe = %+v", res)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if flows, err := tb.ctrl.FlowStats(ctx, 1); err != nil || len(flows) != 1 {
		t.Fatalf("switch 1 flows = %v, %v", flows, err)
	}

	var jobs []api.JobStatus
	if code := getJSON(t, srv.URL+"/v1/updates", &jobs); code != http.StatusOK || len(jobs) != 1 {
		t.Fatalf("updates list: code %d, %v", code, jobs)
	}
	var dpids []uint64
	if code := getJSON(t, srv.URL+"/v1/switches", &dpids); code != http.StatusOK || len(dpids) != 12 {
		t.Fatalf("switches: code %d, %v", code, dpids)
	}
}

// TestRESTValidation sends malformed variants of the paper's update
// message, in its own field names, and expects each rejected with the
// status and error code of the check that caught it.
func TestRESTValidation(t *testing.T) {
	_, srv := restTestbed(t)
	cases := []struct {
		name     string
		body     string
		wantCode int
	}{
		{"bad-json", "{", api.CodeInvalidJSON},
		{"bad-ip", paperUpdate(`"oldpath": [1, 2], "newpath": [1, 2], "nw_dst": "nope"`), api.CodeInvalidMatch},
		{"bad-paths", paperUpdate(`"oldpath": [1], "newpath": [1, 2], "nw_dst": "10.0.0.2"`), api.CodeInvalidPath},
		{"bad-algo", paperUpdate(fig1PaperFields + `, "algorithm": "magic"`), api.CodeUnknownAlgorithm},
		{"wayup-needs-wp", paperUpdate(`"oldpath": [1, 2, 3, 4, 5, 6, 12], "newpath": [1, 7, 8, 3, 9, 10, 11, 12], "nw_dst": "10.0.0.2", "algorithm": "wayup"`), api.CodeScheduleFailed},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := postRaw(t, srv.URL+"/v1/updates", c.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("code = %d (%s), want %d", resp.StatusCode, body, http.StatusBadRequest)
			}
			var envelope api.Error
			decodeInto(t, body, &envelope)
			if envelope.Code != c.wantCode {
				t.Fatalf("envelope = %+v, want code %d", envelope, c.wantCode)
			}
		})
	}
}

// TestRESTJobLookupErrors pins the error envelope of job lookups: an
// unknown id is 404 with CodeUnknownJob, a malformed one 400 with
// CodeBadRequest.
func TestRESTJobLookupErrors(t *testing.T) {
	_, srv := restTestbed(t)
	for _, c := range []struct {
		path       string
		wantStatus int
		wantCode   int
	}{
		{"/v1/updates/999", http.StatusNotFound, api.CodeUnknownJob},
		{"/v1/updates/abc", http.StatusBadRequest, api.CodeBadRequest},
	} {
		var envelope api.Error
		if code := getJSON(t, srv.URL+c.path, &envelope); code != c.wantStatus || envelope.Code != c.wantCode {
			t.Fatalf("GET %s = %d %+v, want %d code %d", c.path, code, envelope, c.wantStatus, c.wantCode)
		}
	}
}

func TestRESTPolicyInstall(t *testing.T) {
	tb, srv := restTestbed(t)
	req := api.PolicyRequest{Path: []uint64{1, 2, 3, 4, 5, 6, 12}, NWDst: FlowIPForTest, Host: "h2"}
	resp, body := postJSON(t, srv.URL+"/v1/policies", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("policy: %d %s", resp.StatusCode, body)
	}
	res := tb.fabric.Inject(1, nwDstOf(FlowIPForTest), 64)
	if res.Outcome != switchsim.ProbeDelivered || res.Host != "h2" {
		t.Fatalf("probe after policy install = %+v", res)
	}
	// Validation errors.
	for name, bad := range map[string]api.PolicyRequest{
		"bad-ip":    {Path: []uint64{1, 2}, NWDst: "x"},
		"bad-path":  {Path: []uint64{1}, NWDst: FlowIPForTest},
		"bad-host":  {Path: []uint64{1, 2}, NWDst: FlowIPForTest, Host: "nope"},
		"bad-links": {Path: []uint64{1, 12}, NWDst: FlowIPForTest},
	} {
		resp, _ := postJSON(t, srv.URL+"/v1/policies", bad)
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestRESTTwoPhaseAndCleanup(t *testing.T) {
	tb, srv := restTestbed(t)
	req := api.PolicyRequest{Path: []uint64{1, 2, 3, 4, 5, 6, 12}, NWDst: FlowIPForTest, Host: "h2"}
	if resp, body := postJSON(t, srv.URL+"/v1/policies", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("policy: %d %s", resp.StatusCode, body)
	}
	resp, body := postJSON(t, srv.URL+"/v1/updates", api.BatchUpdateRequest{
		Updates: []api.FlowUpdate{fig1Update("two-phase")},
		Cleanup: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("two-phase update: %d %s", resp.StatusCode, body)
	}
	var br api.BatchUpdateResponse
	decodeInto(t, body, &br)
	acc := br.Updates[0]
	if acc.Algorithm != "two-phase" || acc.Guarantees != "PerPacketConsistency" {
		t.Fatalf("response = %+v", acc)
	}
	st := waitJobREST(t, srv, acc.ID)
	if st.State != "done" {
		t.Fatalf("job state %q (%s)", st.State, st.Error)
	}
	if len(st.Rounds) != 3 { // prepare, commit, cleanup
		t.Fatalf("rounds = %d, want 3", len(st.Rounds))
	}
	res := tb.fabric.Inject(1, nwDstOf(FlowIPForTest), 64)
	if !res.Visited.Equal(topo.Fig1NewPath) {
		t.Fatalf("final path = %v", res.Visited)
	}
	// Cleanup removed old-only rules.
	for _, n := range []topo.NodeID{2, 4, 5, 6} {
		if tb.fabric.Switch(n).Table().Len() != 0 {
			t.Fatalf("stale rule on switch %d after REST cleanup", n)
		}
	}
}
