"""Tests for the benchmark designs, stimuli and registry."""

import pytest

from repro.baselines.ifsim import IFsimSimulator
from repro.baselines.vfsim import VFsimSimulator
from repro.designs.registry import BENCHMARK_NAMES, get_benchmark, load_benchmark
from repro.designs.stimuli import mips_asm, rv32i
from repro.errors import HarnessError
from repro.sim.codegen import CodegenEngine
from repro.sim.engine import EventDrivenEngine


def test_registry_lists_all_ten_benchmarks():
    assert len(BENCHMARK_NAMES) == 10
    assert set(BENCHMARK_NAMES) == {
        "alu", "fpu", "sha256_hv", "apb", "sodor",
        "riscv_mini", "picorv32", "conv_acc", "sha256_c2v", "mips",
    }


def test_unknown_benchmark_raises():
    with pytest.raises(HarnessError):
        get_benchmark("nonexistent")


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_compiles_and_finalizes(name):
    spec = get_benchmark(name)
    design = spec.compile()
    assert design.is_finalized
    assert design.rtl_nodes
    assert design.behavioral_nodes
    assert design.inputs and design.outputs


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_stimulus_is_valid_and_deterministic(name):
    design, stim = load_benchmark(name, cycles=30)
    stim.validate(design)
    design2, stim2 = load_benchmark(name, cycles=30)
    assert [stim.vector(i) for i in range(30)] == [stim2.vector(i) for i in range(30)]


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_registry_round_trip(name):
    """Corpus/stimulus drift guard: every registry entry must compile,
    elaborate and validate its default-parameter stimulus against the design.
    """
    spec = get_benchmark(name)
    design = spec.compile()
    assert design.is_finalized
    assert design.name == spec.top
    stim = spec.stimulus()
    assert stim.num_cycles() == spec.default_cycles
    stim.validate(design)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_engine_traces_match_on_benchmark(name, tmp_path, monkeypatch):
    """IFsim's kernel (event-driven) and VFsim's (generated code) must produce
    identical per-cycle output traces on the whole corpus: both are driven by
    the same CycleDriver; only the settling strategy differs.

    The kernels are built the way the baselines build them, so VFsim's goes
    through the on-disk code cache, and its second build (one per fault in a
    campaign) must load from that cache and still match.
    """
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path))
    design, stim = load_benchmark(name, cycles=40)
    event = IFsimSimulator(design)._make_engine()
    vfsim = VFsimSimulator(design)
    codegen, cached = vfsim._make_engine(), vfsim._make_engine()
    assert isinstance(event, EventDrivenEngine)
    assert isinstance(codegen, CodegenEngine)
    assert not codegen.cache_hit and cached.cache_hit
    golden = event.run(stim)
    assert golden.first_difference(codegen.run(stim)) is None
    assert golden.first_difference(cached.run(stim)) is None


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_good_simulation_has_activity(name):
    design, stim = load_benchmark(name, cycles=60)
    trace = EventDrivenEngine(design).run(stim)
    assert len(trace) == 60
    # outputs must not be constant for the whole run (the design is alive)
    assert len(set(trace.cycles)) > 1


def test_sha256_variants_share_interface():
    hv = get_benchmark("sha256_hv").compile()
    c2v = get_benchmark("sha256_c2v").compile()
    assert {s.name for s in hv.inputs} == {s.name for s in c2v.inputs}


def test_sha256_c2v_is_rtl_node_dominated():
    hv = get_benchmark("sha256_hv").compile()
    c2v = get_benchmark("sha256_c2v").compile()
    hv_ratio = len(hv.rtl_nodes) / max(1, sum(n.statement_count for n in hv.behavioral_nodes))
    c2v_ratio = len(c2v.rtl_nodes) / max(1, sum(n.statement_count for n in c2v.behavioral_nodes))
    assert c2v_ratio > hv_ratio * 2


def test_cpu_cores_execute_programs():
    """The CPUs must actually retire instructions under their stimulus."""
    for name, retired_output in [("sodor", "retired"), ("riscv_mini", "retired"),
                                 ("picorv32", "retired"), ("mips", "retired")]:
        design, stim = load_benchmark(name, cycles=120)
        engine = EventDrivenEngine(design)
        engine.run(stim)
        assert engine.peek(retired_output) > 5, name
        assert engine.peek("trap") == 0, name


def test_rv32i_encoder_fields():
    word = rv32i.addi(10, 0, 42)
    assert word & 0x7F == 0x13
    assert (word >> 7) & 0x1F == 10
    assert (word >> 20) == 42
    word = rv32i.add(3, 1, 2)
    assert word & 0x7F == 0x33
    assert (word >> 25) == 0
    assert (rv32i.sub(3, 1, 2) >> 25) == 0b0100000


def test_rv32i_branch_encoding_roundtrip():
    # beq x1, x2, -8 : imm[12|10:5|4:1|11] split across the word
    word = rv32i.beq(1, 2, -8)
    imm12 = (word >> 31) & 1
    imm10_5 = (word >> 25) & 0x3F
    imm4_1 = (word >> 8) & 0xF
    imm11 = (word >> 7) & 1
    rebuilt = (imm12 << 12) | (imm11 << 11) | (imm10_5 << 5) | (imm4_1 << 1)
    # sign-extend 13-bit
    if rebuilt & 0x1000:
        rebuilt -= 0x2000
    assert rebuilt == -8


def test_mips_encoder_fields():
    word = mips_asm.addiu(2, 0, 100)
    assert (word >> 26) == 0x09
    assert word & 0xFFFF == 100
    word = mips_asm.addu(3, 1, 2)
    assert (word >> 26) == 0 and (word & 0x3F) == 0x21
    assert (mips_asm.j(5) >> 26) == 0x02


def test_programs_fit_instruction_memory():
    assert len(rv32i.default_test_program()) <= 256
    assert len(mips_asm.default_test_program()) <= 256


def test_spec_metadata():
    spec = get_benchmark("alu")
    assert spec.paper_name == "ALU (64)"
    assert spec.default_cycles > 0
    assert spec.description
    assert "module" in spec.read_source()
