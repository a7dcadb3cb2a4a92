package serve

import (
	"net/http"
	"strconv"
	"strings"

	"repro/tinygroups"
)

// The mint path serves the §IV identity layer over HTTP. Minting is pure
// computation against the lock-free epoch snapshot, so — like lookups and
// gets — it runs on the handler goroutine's solver fan-out and never
// takes the writer lock: a storm of expensive mints cannot stall puts
// behind it, and an epoch advance never waits on an in-flight solve.

// maxMintCount caps IDs per /v1/mint call: each one is a full PoW solve,
// so the cap bounds the compute a single request can pin.
const maxMintCount = 64

// maxVerifyClaims caps claims per /v1/verify call.
const maxVerifyClaims = 4096

// mintRequest is the body of /v1/mint.
type mintRequest struct {
	Miner string `json:"miner"`
	Count int    `json:"count,omitempty"` // default 1
}

// mintedID is one solved puzzle in a mintResponse.
type mintedID struct {
	ID       string `json:"id"`    // hex point, the pointHex convention
	Sigma    []byte `json:"sigma"` // base64 in JSON; present to /v1/verify
	Attempts int    `json:"attempts"`
}

// mintResponse reports the minted IDs and the difficulty they were solved
// at.
type mintResponse struct {
	Epoch   int        `json:"epoch"`
	Work    float64    `json:"work"` // expected attempts per ID at current τ
	Results []mintedID `json:"results"`
}

// verifyClaim is one claimed identity in a /v1/verify body.
type verifyClaim struct {
	ID    string `json:"id"`
	Sigma []byte `json:"sigma"`
}

// verifyRequest is the body of /v1/verify.
type verifyRequest struct {
	Claims []verifyClaim `json:"claims"`
}

// verifyResponse carries per-claim verdicts in input order.
type verifyResponse struct {
	Epoch    int    `json:"epoch"`
	Verdicts []bool `json:"verdicts"`
	Valid    int    `json:"valid"`
}

// parsePointHex inverts pointHex: "0x"-prefixed hex → ID-space point.
func parsePointHex(s string) (tinygroups.Point, error) {
	v, err := strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 64)
	return tinygroups.Point(v), err
}

func (s *Server) handleMint(w http.ResponseWriter, r *http.Request) {
	if !s.methodCheck(w, r, http.MethodPost) {
		return
	}
	s.m.mints.Add(1)
	var req mintRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.badRequest(w, "bad JSON body: "+err.Error())
		return
	}
	if req.Miner == "" {
		s.badRequest(w, `missing "miner"`)
		return
	}
	if req.Count == 0 {
		req.Count = 1
	}
	if req.Count < 0 || req.Count > maxMintCount {
		s.badRequest(w, `"count" outside [1, `+strconv.Itoa(maxMintCount)+`]`)
		return
	}
	results, err := s.sys.MintBatch(r.Context(), req.Miner, req.Count)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.m.mintedIDs.Add(int64(len(results)))
	resp := mintResponse{Work: s.sys.MintWork(), Results: make([]mintedID, len(results))}
	for i, res := range results {
		resp.Epoch = res.Epoch
		resp.Results[i] = mintedID{ID: pointHex(res.ID), Sigma: res.Sigma, Attempts: res.Attempts}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	if !s.methodCheck(w, r, http.MethodPost) {
		return
	}
	s.m.verifies.Add(1)
	var req verifyRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.badRequest(w, "bad JSON body: "+err.Error())
		return
	}
	if len(req.Claims) == 0 {
		s.badRequest(w, `missing "claims"`)
		return
	}
	if len(req.Claims) > maxVerifyClaims {
		s.badRequest(w, "more than "+strconv.Itoa(maxVerifyClaims)+" claims")
		return
	}
	claims := make([]tinygroups.MintClaim, len(req.Claims))
	for i, c := range req.Claims {
		id, err := parsePointHex(c.ID)
		if err != nil {
			s.badRequest(w, "claim "+strconv.Itoa(i)+": bad id: "+err.Error())
			return
		}
		claims[i] = tinygroups.MintClaim{ID: id, Sigma: c.Sigma}
	}
	verdicts, err := s.sys.VerifyMints(r.Context(), claims)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.m.verifiedClaims.Add(int64(len(verdicts)))
	resp := verifyResponse{Epoch: s.sys.Epoch(), Verdicts: verdicts}
	for _, ok := range verdicts {
		if ok {
			resp.Valid++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
