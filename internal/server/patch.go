package server

import (
	"net/http"

	"comic/internal/datasets"
	"comic/internal/graph"
)

// PATCH /v1/graphs/{name}/edges — streaming graph updates.
//
// A patch applies one atomic batch of edge updates (add, remove,
// reweight) to a registered graph and advances its edit generation. Once
// the new generation is published, the cached RR-set collections drawn on
// the old one are dropped; the next query on the patched graph rebuilds
// the ones it needs.
//
// Consistency: in-flight solves pinned the previous generation and finish
// on it; new requests resolve the patched generation. The optional
// ifGeneration precondition makes read-modify-write loops safe: a client
// that solved on generation g can demand its patch apply to g and get a
// 409 graph_generation_conflict if another writer got there first.

// edgeUpdatePayload is one operation in a PATCH /v1/graphs/{name}/edges
// batch. "p" is required for add and reweight, and must be absent for
// remove.
type edgeUpdatePayload struct {
	Op string   `json:"op"` // "add", "remove", "reweight"
	U  int32    `json:"u"`
	V  int32    `json:"v"`
	P  *float64 `json:"p,omitempty"`
}

// graphPatchRequest is the body of PATCH /v1/graphs/{name}/edges.
type graphPatchRequest struct {
	Updates []edgeUpdatePayload `json:"updates"`
	// IfGeneration, when present, is a precondition: the patch applies
	// only if the graph is still at this edit generation (409
	// graph_generation_conflict otherwise).
	IfGeneration *int64 `json:"ifGeneration,omitempty"`
}

// graphPatchResponse is the updated graph resource plus a report of what
// happened to its cached RR-set collections.
type graphPatchResponse struct {
	graphInfo
	Repair RepairSummary `json:"repair"`
}

// handleGraphEdges dispatches /v1/graphs/{name}/edges (PATCH only).
func (s *Server) handleGraphEdges(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodPatch) {
		return
	}
	var req graphPatchRequest
	if !s.decodeBodyLimit(w, r, &req, s.cfg.MaxUploadBytes) {
		return
	}
	out, aerr := s.patchGraph(r.PathValue("name"), &req)
	if aerr != nil {
		s.writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// decodePatchUpdates validates the wire batch into graph.EdgeUpdate ops.
func (s *Server) decodePatchUpdates(payload []edgeUpdatePayload) ([]graph.EdgeUpdate, *apiError) {
	if len(payload) == 0 {
		return nil, s.fail(http.StatusBadRequest, codeInvalidArgument,
			"updates must hold at least one edge update")
	}
	ups := make([]graph.EdgeUpdate, len(payload))
	for i, p := range payload {
		switch op := graph.UpdateOp(p.Op); op {
		case graph.OpAdd, graph.OpReweight:
			if p.P == nil {
				return nil, s.fail(http.StatusBadRequest, codeInvalidArgument,
					"updates[%d]: op %q requires \"p\"", i, p.Op)
			}
			ups[i] = graph.EdgeUpdate{Op: op, U: p.U, V: p.V, P: *p.P}
		case graph.OpRemove:
			if p.P != nil {
				return nil, s.fail(http.StatusBadRequest, codeInvalidArgument,
					"updates[%d]: op \"remove\" takes no \"p\"", i)
			}
			ups[i] = graph.EdgeUpdate{Op: op, U: p.U, V: p.V}
		default:
			return nil, s.fail(http.StatusBadRequest, codeInvalidArgument,
				"updates[%d]: unknown op %q (want \"add\", \"remove\" or \"reweight\")", i, p.Op)
		}
	}
	return ups, nil
}

// patchGraph validates and executes one edge-update batch.
func (s *Server) patchGraph(name string, req *graphPatchRequest) (*graphPatchResponse, *apiError) {
	ups, aerr := s.decodePatchUpdates(req.Updates)
	if aerr != nil {
		return nil, aerr
	}

	// One patch at a time: apply-and-swap must see a stable current
	// version. Queries are unaffected — they pin whatever version is
	// current when they resolve the name.
	s.reg.patchMu.Lock()
	defer s.reg.patchMu.Unlock()

	ref, aerr := s.acquireGraph(name)
	if aerr != nil {
		return nil, aerr
	}
	//comic:allow lockorder patchMu exists to serialize the whole patch pipeline, I/O included; queries never take it
	defer s.reg.release(ref)
	if req.IfGeneration != nil && *req.IfGeneration != ref.v.gen {
		return nil, s.fail(http.StatusConflict, codeGraphGenerationConflict,
			"graph %q is at generation %d, not %d", name, ref.v.gen, *req.IfGeneration).
			withDetails(map[string]any{"generation": ref.v.gen, "ifGeneration": *req.IfGeneration})
	}

	newG, delta, err := ref.graph().ApplyUpdates(ups)
	if err != nil {
		return nil, s.fail(http.StatusBadRequest, codeInvalidArgument, "%s", err.Error())
	}
	e := ref.entry
	next := &graphVersion{
		d:           datasets.New(name, newG, ref.gap(), e.source),
		gen:         ref.v.gen + 1,
		id:          versionedID(e.cacheID, ref.v.gen+1),
		fingerprint: graphFingerprint(newG),
	}

	// Persist the patched generation before publishing it: a patch that
	// would silently revert on restart is refused, exactly like an
	// unpersistable registration.
	s.reg.persistMu.Lock()
	//comic:allow lockorder persistMu's only job is to serialize graph persistence I/O
	perr := s.reg.persistGraph(e, next)
	s.reg.persistMu.Unlock()
	if perr != nil {
		return nil, s.fail(http.StatusInternalServerError, codeInternal,
			"persisting patched graph %q: %v", name, perr)
	}

	if err := s.reg.swapVersion(e, ref.v, next); err != nil {
		// The graph was deleted while the patch ran: honor the delete.
		s.reg.persistMu.Lock()
		//comic:allow lockorder persistMu's only job is to serialize graph persistence I/O
		s.reg.unpersistGraphOwned(e)
		s.reg.persistMu.Unlock()
		return nil, s.fail(http.StatusConflict, codeGraphConflict, "%s", err.Error())
	}
	// Only now is the old generation superseded: a refused patch leaves
	// its collections warm. Solves still pinned to it may insert more
	// entries; those drain when its last reference is released.
	//comic:allow lockorder patchMu exists to serialize the whole patch pipeline, I/O included; queries never take it
	rep := s.index.RepairGraph(ref.graph(), newG, next.id, delta, 0)
	s.nGraphs.Add(1)
	return &graphPatchResponse{graphInfo: graphInfoOf(e, next), Repair: rep}, nil
}
