"""Tests for explicit and implicit (Algorithm 1) redundancy detection.

The implicit-redundancy tests reproduce the paper's motivating scenarios of
Fig. 3 / Fig. 5: faults whose divergent inputs do not change the execution
path nor the data the path depends on must be classified redundant; faults
that flip a branch decision or touch a path dependency must not.
"""

import random

import pytest

import fixture_designs
from repro.api import compile_design
from repro.core.explicit import divergent_read_signals, is_explicitly_redundant
from repro.core.redundancy import ImplicitRedundancyChecker
from repro.designs.registry import get_benchmark
from repro.sim.interpreter import execute_behavioral
from repro.sim.values import ConcurrentValueStore, FaultView, GoodView

# The behavioral code of Fig. 5(a) in the paper.
FIG5_SRC = """
module fig5(
  input clk,
  input [7:0] s,
  input [7:0] c,
  input [7:0] g,
  input [7:0] k,
  input [7:0] b,
  output reg [7:0] r,
  output reg [7:0] a
);
  always @(posedge clk) begin
    if (s == 0) begin
      r <= c + g;
      a <= k;
    end
    else if (s == 1)
      r <= 0;
    else begin
      a <= 0;
      if (b == 0)
        r <= r + 1;
      else
        r <= a * r;
    end
  end
endmodule
"""


@pytest.fixture
def fig5():
    design = compile_design(FIG5_SRC, top="fig5")
    node = design.behavioral_nodes[0]
    store = ConcurrentValueStore(design)
    checker = ImplicitRedundancyChecker(design)
    return design, node, store, checker


def set_good(design, store, **values):
    for name, value in values.items():
        store.set(design.signal(name), value)


def good_trace(node, store):
    return execute_behavioral(node, GoodView(store), want_trace=True).trace


def check(checker, node, store, fault_id):
    return checker.is_redundant(
        node, store, fault_id, good_trace(node, store), FaultView(store, fault_id)
    )


# ------------------------------------------------------------------ explicit
def test_explicit_redundant_when_no_divergence(fig5):
    design, node, store, _ = fig5
    assert is_explicitly_redundant(store, node, fault_id=0)


def test_explicit_not_redundant_with_divergent_read(fig5):
    design, node, store, _ = fig5
    store.set_fault_value(design.signal("s"), 0, 3)
    assert not is_explicitly_redundant(store, node, 0)
    assert divergent_read_signals(store, node, 0) == [design.signal("s")]


def test_explicit_ignores_unrelated_signals(fig5):
    design, node, store, _ = fig5
    store.set_fault_value(design.signal("clk"), 0, 1)  # clock is not a data read
    assert is_explicitly_redundant(store, node, 0)


# ------------------------------------------------------------------ implicit
def test_fig3b_implicit_redundancy_detected(fig5):
    """Fault changes b, c, k while the good path takes the s==1 branch."""
    design, node, store, checker = fig5
    set_good(design, store, s=1, c=2, g=0, k=0, b=0, r=1, a=2)
    store.set_fault_value(design.signal("b"), 7, 1)   # decision value changes...
    store.set_fault_value(design.signal("c"), 7, 9)   # ...but not on the taken path
    store.set_fault_value(design.signal("k"), 7, 5)
    assert check(checker, node, store, 7)


def test_fig3c_dependency_divergence_not_redundant(fig5):
    """Same path, but the fault touches r which the taken path depends on."""
    design, node, store, checker = fig5
    set_good(design, store, s=2, b=0, r=1, a=2)
    store.set_fault_value(design.signal("r"), 3, 9)
    assert not check(checker, node, store, 3)


def test_path_decision_divergence_not_redundant(fig5):
    """A fault that flips the s==0 decision takes another path entirely."""
    design, node, store, checker = fig5
    set_good(design, store, s=0, c=1, g=1, k=1)
    store.set_fault_value(design.signal("s"), 5, 2)
    assert not check(checker, node, store, 5)


def test_same_decision_outcome_despite_value_change(fig5):
    """Fig. 5(d): Evaluate(1) == Evaluate(5) for the b == 0 test."""
    design, node, store, checker = fig5
    set_good(design, store, s=2, b=1, r=1, a=2)
    store.set_fault_value(design.signal("b"), 9, 5)  # both nonzero: same arm
    assert check(checker, node, store, 9)


def test_dependency_on_taken_branch_detected(fig5):
    design, node, store, checker = fig5
    set_good(design, store, s=0, c=2, g=3, k=4)
    store.set_fault_value(design.signal("k"), 2, 7)  # k is read on the s==0 path
    assert not check(checker, node, store, 2)


def test_divergence_on_other_branch_is_redundant(fig5):
    design, node, store, checker = fig5
    set_good(design, store, s=0, c=2, g=3, k=4, r=1, a=1)
    # r and a are only read on the s>1 path, b only decides there
    store.set_fault_value(design.signal("b"), 4, 1)
    assert check(checker, node, store, 4)


def test_checker_caches_vdgs(fig5):
    design, node, store, checker = fig5
    assert checker.vdg_for(node) is checker.vdg_for(node)
    checker.prebuild()
    assert len(checker._vdgs) == len(design.behavioral_nodes)


def test_checker_statistics(fig5):
    design, node, store, checker = fig5
    set_good(design, store, s=1)
    store.set_fault_value(design.signal("c"), 1, 9)
    assert check(checker, node, store, 1)
    store.set_fault_value(design.signal("s"), 2, 3)
    assert not check(checker, node, store, 2)
    assert checker.checks == 2
    assert checker.hits == 1
    assert checker.hit_rate == pytest.approx(50.0)


# -------------------------------------------------- blocking-local handling
LOCAL_SRC = """
module localdep(
  input clk,
  input [7:0] a,
  input [7:0] b,
  input [7:0] c,
  output reg [7:0] y
);
  reg [7:0] t;
  always @(posedge clk) begin
    t = a;
    if (t != 0) y <= b;
    else y <= c;
  end
endmodule
"""


def test_local_dependent_condition_is_conservative():
    """A condition on a blocking-assigned local must not be mis-classified.

    The fault diverges on ``a``; the pre-execution value of ``t`` is identical
    for good and fault, but the true execution reads ``a`` through ``t``.  The
    checker must report non-redundant (soundness over precision).
    """
    design = compile_design(LOCAL_SRC, top="localdep")
    node = design.behavioral_nodes[0]
    store = ConcurrentValueStore(design)
    checker = ImplicitRedundancyChecker(design)
    store.set(design.signal("a"), 1)
    store.set(design.signal("b"), 3)
    store.set(design.signal("c"), 4)
    store.set_fault_value(design.signal("a"), 0, 0)  # flips the t != 0 branch
    trace = good_trace(node, store)
    assert not checker.is_redundant(node, store, 0, trace, FaultView(store, 0))


def test_local_dependent_redundant_when_support_clean():
    design = compile_design(LOCAL_SRC, top="localdep")
    node = design.behavioral_nodes[0]
    store = ConcurrentValueStore(design)
    checker = ImplicitRedundancyChecker(design)
    store.set(design.signal("a"), 1)
    # fault diverges only on c, which the taken (t != 0) path never reads
    store.set_fault_value(design.signal("c"), 1, 9)
    trace = good_trace(node, store)
    assert checker.is_redundant(node, store, 1, trace, FaultView(store, 1))


# ------------------------------------------------- memory-word divergence
MEM_SRC = """
module memread(
  input clk,
  input sel,
  input [1:0] ra,
  input [7:0] d,
  output reg [7:0] y
);
  reg [7:0] mem [0:3];
  always @(posedge clk) mem[ra] <= d;
  always @(posedge clk) begin
    if (sel) y <= mem[ra];
    else y <= d;
  end
endmodule
"""


@pytest.fixture
def memread():
    """The reader block, and a store where fault 4 diverges on ``mem[2]`` only."""
    design = compile_design(MEM_SRC, top="memread")
    mem = design.signal("mem")
    node = next(n for n in design.behavioral_nodes if mem in n.reads)
    store = ConcurrentValueStore(design)
    store.set_fault_word(mem, 2, 4, 9)
    assert store.mem_div[mem] == {4: {2: 9}}
    assert not any(4 in entries for entries in store.div.values())
    return design, node, store, mem


def test_explicit_sees_a_memory_word_divergence(memread):
    design, node, store, mem = memread
    assert not is_explicitly_redundant(store, node, 4)


def test_explicit_redundant_once_the_word_converges(memread):
    design, node, store, mem = memread
    store.set_fault_word(mem, 2, 4, store.get_word(mem, 2))
    assert 4 not in store.mem_div[mem]  # the empty overlay was popped
    assert is_explicitly_redundant(store, node, 4)


def test_walk_sees_a_memory_word_in_segment_support(memread):
    design, node, store, mem = memread
    vdg = ImplicitRedundancyChecker(design).vdg_for(node)
    store.set(design.signal("sel"), 1)  # the taken path reads mem[ra]
    assert any(mem in vnode.support for vnode in vdg.nodes if vnode.is_segment)
    assert not vdg.walk_is_redundant(store, 4, good_trace(node, store), FaultView(store, 4))
    store.set(design.signal("sel"), 0)  # the taken path reads d only
    assert vdg.walk_is_redundant(store, 4, good_trace(node, store), FaultView(store, 4))


# ------------------------------------------------- flattened-walk oracle
def per_node_walk(vdg, store, fault_id, trace, fault_view):
    """Algorithm 1 as a walk over the VDG's nodes, one fault at a time.

    The reference for :meth:`VisibilityDependencyGraph.walk_is_redundant`,
    which walks the good path once per trace and flattens it.
    """
    node = vdg.entry
    while node is not vdg.exit:
        if node.is_decision:
            good_arm = trace.get(node.decision.uid)
            if good_arm is None:
                return False
            if node.local_dependent:
                if any(store.diverges(signal, fault_id) for signal in node.support):
                    return False
            elif node.select_arm(fault_view) != good_arm:
                return False
            node = node.succs[good_arm]
            continue
        if node.is_segment and any(
            store.diverges(signal, fault_id) for signal in node.support
        ):
            return False
        node = node.succs[0]
    return True


# ``t`` is blocking-assigned on one branch only, so the second decision reads
# either ``a`` or the previous activation's ``t``.
STALE_DECISION_SRC = """
module stale(
  input clk,
  input en,
  input [7:0] a,
  input [7:0] b,
  output reg [7:0] y
);
  reg [7:0] t;
  always @(posedge clk) begin
    if (en) t = a;
    if (t[0]) y <= b;
    else y <= a;
  end
endmodule
"""


def _oracle_designs():
    sources = [
        (STALE_DECISION_SRC, "stale"),
        (fixture_designs.COUNTER_SRC, "counter"),
        (fixture_designs.MUX_PIPELINE_SRC, "mux_pipeline"),
        (fixture_designs.MEMORY_SRC, "scratchpad"),
        (fixture_designs.CASE_FSM_SRC, "fsm"),
        (fixture_designs.TEMPS_SRC, "temps"),
        (FIG5_SRC, "fig5"),
        (LOCAL_SRC, "localdep"),
        (MEM_SRC, "memread"),
    ]
    designs = [compile_design(source, top=top) for source, top in sources]
    return designs + [get_benchmark("sha256_hv").compile()]


def _random_store(rng, design, node, fault_ids):
    """Random good state; each fault diverges on up to three of ``node``'s reads."""
    store = ConcurrentValueStore(design)
    for signal in design.signals:
        if signal.is_memory:
            store.memories[signal] = [rng.randrange(1 << signal.width) for _ in range(signal.depth)]
        else:
            store.set(signal, rng.randrange(1 << signal.width))
    reads = sorted(node.reads, key=lambda signal: signal.sid)
    for fault_id in fault_ids:
        for signal in rng.sample(reads, min(len(reads), rng.randrange(4))):
            value = rng.randrange(1 << signal.width)
            if signal.is_memory:
                store.set_fault_word(signal, rng.randrange(signal.depth), fault_id, value)
            else:
                store.set_fault_value(signal, fault_id, value)
    return store


def test_flattened_walk_equals_the_per_node_walk():
    """Random stores, faults and good traces: both walks give the same answer.

    Every trial's faults share one trace dict, so the memoized good path is
    reused; a trial sometimes also drops a decision from a copy of the trace,
    which both walks must answer conservatively.
    """
    rng = random.Random(19)
    fault_ids = range(8)
    for design in _oracle_designs():
        checker = ImplicitRedundancyChecker(design)
        outcomes = set()
        for node in design.behavioral_nodes:
            vdg = checker.vdg_for(node)
            for _ in range(40):
                store = _random_store(rng, design, node, fault_ids)
                trace = good_trace(node, store)
                traces = [trace]
                if trace and rng.random() < 0.25:
                    partial = dict(trace)
                    del partial[rng.choice(sorted(partial))]
                    traces.append(partial)
                for walked in traces:
                    for fault_id in fault_ids:
                        view = FaultView(store, fault_id)
                        expected = per_node_walk(vdg, store, fault_id, walked, view)
                        assert vdg.walk_is_redundant(store, fault_id, walked, view) == expected
                        outcomes.add(expected)
        assert outcomes == {True, False}, design.name
