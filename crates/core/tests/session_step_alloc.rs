//! A governed control interval must not touch the heap: once a `Session`
//! is warm, `Session::step` under PS and PM (machine tick, DAQ, PMC read,
//! thermal sensor, decide, actuation) allocates only when the run trace
//! grows its record buffer. A counting global allocator tallies
//! allocations per thread, so only this test's own steps are counted.

mod counting_alloc;

use aapm::governor::Governor;
use aapm::limits::{PerformanceFloor, PowerLimit};
use aapm::pm::PerformanceMaximizer;
use aapm::ps::PowerSave;
use aapm::runtime::Session;
use aapm_models::perf_model::{PerfModel, PerfModelParams};
use aapm_models::power_model::PowerModel;
use aapm_platform::config::MachineConfig;
use aapm_platform::phase::PhaseDescriptor;
use aapm_platform::program::PhaseProgram;
use counting_alloc::allocations;

const WARM_UP: usize = 100;
const COUNTED: usize = 2_000;
/// The trace's record buffer doubles from 128 past 2 100 records: five
/// reallocations. The bound leaves room for a different growth policy,
/// not for one allocation per interval.
const TRACE_GROWTH: u64 = 12;

/// A core-bound phase then a memory-bound one, long enough that the
/// counted intervals run before the program ends, so PS and PM both move
/// the p-state.
fn program() -> PhaseProgram {
    let core = PhaseDescriptor::builder("core")
        .instructions(20_000_000_000)
        .core_cpi(0.8)
        .mem_fraction(0.1)
        .build()
        .unwrap();
    let memory = PhaseDescriptor::builder("memory")
        .instructions(20_000_000_000)
        .core_cpi(1.0)
        .mem_fraction(0.45)
        .l1_mpi(0.04)
        .l2_mpi(0.01)
        .build()
        .unwrap();
    PhaseProgram::new("alloc", vec![core, memory]).unwrap()
}

/// Steps a session through the warm-up, then returns the allocations made
/// over the counted intervals.
fn counted_allocations(governor: &mut dyn Governor) -> u64 {
    let mut session = Session::builder(MachineConfig::pentium_m_755(3), program())
        .governor(governor)
        .build()
        .unwrap();
    for _ in 0..WARM_UP {
        assert!(session.step().unwrap().is_running(), "warm-up ran to the end");
    }
    let before = allocations();
    for _ in 0..COUNTED {
        assert!(session.step().unwrap().is_running(), "program ended before the count");
    }
    allocations() - before
}

#[test]
fn ps_session_step_allocates_only_for_trace_growth() {
    let mut ps = PowerSave::new(
        PerfModel::new(PerfModelParams::paper()),
        PerformanceFloor::new(0.8).unwrap(),
    );
    let allocations = counted_allocations(&mut ps);
    assert!(allocations <= TRACE_GROWTH, "{allocations} allocations over {COUNTED} PS intervals");
}

#[test]
fn pm_session_step_allocates_only_for_trace_growth() {
    let mut pm =
        PerformanceMaximizer::new(PowerModel::paper_table_ii(), PowerLimit::new(14.0).unwrap());
    let allocations = counted_allocations(&mut pm);
    assert!(allocations <= TRACE_GROWTH, "{allocations} allocations over {COUNTED} PM intervals");
}
