"""Cross-layer trace propagation: one ``replicate`` request must produce a
single trace id spanning the RPC hop, the GridFTP control conversation,
the data-transfer flows, and the catalog update."""

from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.units import MB


def make_grid():
    return DataGrid([GdmpConfig("cern"), GdmpConfig("anl")])


def test_replicate_produces_one_trace_end_to_end():
    grid = make_grid()
    cern, anl = grid.site("cern"), grid.site("anl")
    grid.run(until=cern.client.produce_and_publish("traced.db", 5 * MB))

    # capture the flows the transfer opens, to check context stamping
    flows = []
    original_open_flow = grid.engine.open_flow

    def spying_open_flow(*args, **kwargs):
        flow = original_open_flow(*args, **kwargs)
        flows.append(flow)
        return flow

    grid.engine.open_flow = spying_open_flow
    grid.run(until=anl.client.replicate("traced.db"))

    root = grid.tracelog.find("gdmp:replicate")
    trace = grid.tracelog.trace(root.trace_id)
    names = {span.name for span in trace}

    # RPC hop: the stage request travels client -> GDMP server
    assert "gdmp:request_stage" in names
    # GridFTP control conversation: handshake + negotiation + RETR
    for command in ("gridftp:AUTH", "gridftp:ADAT", "gridftp:SBUF",
                    "gridftp:RETR"):
        assert command in names
    # the data transfer itself
    transfer = grid.tracelog.find("gridftp:transfer", trace_id=root.trace_id)
    assert transfer.kind == "transfer"
    # catalog update: the new replica registered under the same trace
    add_replica_spans = grid.tracelog.spans(
        trace_id=root.trace_id, name="gdmp:catalog.add_replica_bulk"
    )
    assert any(span.kind == "server" for span in add_replica_spans)

    # every layer is the SAME trace: no other trace ids leaked in
    layered = [s for s in grid.tracelog if s.name in names]
    assert {s.trace_id for s in layered} == {root.trace_id}

    # the spawned network flows carry the trace context too
    assert flows, "the transfer opened no flows?"
    assert {f.context.trace_id for f in flows} == {root.trace_id}

    # parentage: the transfer span hangs off the RETR server span, which
    # hangs off the RETR client span
    retr_server = grid.tracelog.find("gridftp:RETR", kind="server")
    retr_client = grid.tracelog.find("gridftp:RETR", kind="client")
    assert transfer.parent_id == retr_server.span_id
    assert retr_server.parent_id == retr_client.span_id
    assert root.status == "ok" and transfer.status == "ok"


def test_separate_requests_get_separate_traces():
    grid = make_grid()
    cern, anl = grid.site("cern"), grid.site("anl")
    grid.run(until=cern.client.produce_and_publish("a.db", 1 * MB))
    grid.run(until=cern.client.produce_and_publish("b.db", 1 * MB))
    grid.run(until=anl.client.replicate("a.db"))
    grid.run(until=anl.client.replicate("b.db"))
    replicate_roots = grid.tracelog.spans(name="gdmp:replicate")
    assert len(replicate_roots) == 2
    a, b = replicate_roots
    assert a.trace_id != b.trace_id
    # and each trace is internally complete
    for span in (a, b):
        assert any(
            s.name == "gridftp:transfer"
            for s in grid.tracelog.trace(span.trace_id)
        )


def test_trace_ids_are_deterministic_across_runs():
    def run_once():
        grid = make_grid()
        cern, anl = grid.site("cern"), grid.site("anl")
        grid.run(until=cern.client.produce_and_publish("f.db", 2 * MB))
        grid.run(until=anl.client.replicate("f.db"))
        return grid.tracelog.to_records()

    assert run_once() == run_once()
