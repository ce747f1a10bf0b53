//! A fleet node step must not touch the heap: once the first cluster
//! window has run, `FleetPmController::cohort_stepped` (counter deltas,
//! the PM decision, headroom folding, p-state actuation) performs zero
//! allocations. A counting global allocator tallies allocations per
//! thread, so only this test's own steps are counted.

mod counting_alloc;

use aapm::cluster::{BudgetTree, ClusterGovernor, FleetPmController, NodeSpec, RackSpec};
use aapm_models::power_model::PowerModel;
use aapm_platform::config::MachineConfig;
use aapm_platform::error::Result;
use aapm_platform::fleet::{CohortId, CohortMode, Fleet, FleetController};
use aapm_platform::machine::Machine;
use aapm_platform::phase::PhaseDescriptor;
use aapm_platform::program::PhaseProgram;
use aapm_platform::pstate::PStateTable;
use aapm_platform::units::Seconds;
use counting_alloc::allocations;

fn machine(seed: u64, instructions: u64, mem_fraction: f64) -> Machine {
    let phase = PhaseDescriptor::builder("node")
        .instructions(instructions)
        .core_cpi(0.9)
        .mem_fraction(mem_fraction)
        .build()
        .unwrap();
    Machine::new(MachineConfig::pentium_m_755(seed), PhaseProgram::from_phase(phase))
}

/// Wraps the controller and counts the allocations made inside
/// `cohort_stepped` once the first cluster window has closed.
struct Counted {
    inner: FleetPmController,
    governor_ticks: u64,
    counted_steps: u64,
    allocations: u64,
}

impl FleetController for Counted {
    fn cohort_stepped(&mut self, fleet: &mut Fleet, cohort: CohortId, now_ticks: u64) -> Result<()> {
        let before = allocations();
        let result = self.inner.cohort_stepped(fleet, cohort, now_ticks);
        if self.governor_ticks > 0 {
            self.allocations += allocations() - before;
            self.counted_steps += 1;
        }
        result
    }

    fn governor_tick(&mut self, fleet: &mut Fleet, now_ticks: u64) -> Result<()> {
        self.governor_ticks += 1;
        self.inner.governor_tick(fleet, now_ticks)
    }
}

#[test]
fn fleet_node_step_allocates_nothing_after_the_first_window() {
    let mut fleet = Fleet::new(Seconds::from_millis(10.0));
    fleet
        .add_cohort(
            (0..4).map(|i| machine(11 + i, 30_000_000_000, 0.2)).collect(),
            CohortMode::Governed { cadence_ticks: 10 },
        )
        .unwrap();
    fleet
        .add_cohort(
            vec![
                machine(21, 20_000_000_000, 0.5),
                machine(22, 18_000_000_000, 0.5),
                // Finishes early: the finished-node headroom path runs too.
                machine(23, 1_000_000_000, 0.5),
            ],
            CohortMode::Governed { cadence_ticks: 25 },
        )
        .unwrap();
    let node = NodeSpec { floor_w: 6.0, ceiling_w: 24.5 };
    let racks = vec![
        RackSpec { ceiling_w: 40.0, nodes: vec![node; 4] },
        RackSpec { ceiling_w: 35.0, nodes: vec![node; 3] },
    ];
    let governor =
        ClusterGovernor::with_reserve(BudgetTree::new(60.0, &racks).unwrap(), 0.5).unwrap();
    let inner = FleetPmController::hierarchical(
        PStateTable::pentium_m_755(),
        &PowerModel::paper_table_ii(),
        governor,
    )
    .unwrap();
    let mut controller = Counted { inner, governor_ticks: 0, counted_steps: 0, allocations: 0 };

    fleet.run_des(600, 100, &mut controller).unwrap();

    assert!(controller.counted_steps > 50, "only {} steps counted", controller.counted_steps);
    assert!(controller.inner.windows() > 0, "PM windows were metered");
    assert_eq!(
        controller.allocations, 0,
        "{} allocations over {} node steps",
        controller.allocations, controller.counted_steps
    );
}
