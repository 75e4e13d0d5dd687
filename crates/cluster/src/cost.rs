//! The power-and-cooling cost model.
//!
//! The source material's headline operational number is a saving of roughly
//! 200–250 € per virtualized server per year in power and cooling, about
//! 10 000 €/year across its 50-VM estate. [`CostModel`] reproduces that
//! arithmetic from first principles: electrical draw of the used hosts,
//! a cooling overhead factor (PUE-style), and an electricity tariff.

use serde::{Deserialize, Serialize};

use crate::placement::ConsolidationPlan;

/// Hours in a year (365 days).
const HOURS_PER_YEAR: f64 = 8760.0;

/// Converts electrical draw into money.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CostModel {
    /// Electricity price in euro per kWh.
    pub(crate) euro_per_kwh: f64,
    /// Cooling overhead multiplier on IT power (1.5 ≈ a small machine room).
    pub(crate) cooling_factor: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // ~0.15 €/kWh (Greek commercial tariff of the era) and a 1.6 cooling factor.
        CostModel {
            euro_per_kwh: 0.15,
            cooling_factor: 1.6,
        }
    }
}

/// The annual cost comparison between two plans (typically "one physical
/// server per workload" vs the consolidated plan).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CostReport {
    /// Annual power+cooling cost of the baseline plan, in euro.
    pub baseline_annual_euro: f64,
    /// Annual power+cooling cost of the consolidated plan, in euro.
    pub consolidated_annual_euro: f64,
    /// Number of workloads (VMs) covered.
    pub(crate) vm_count: usize,
}

impl CostReport {
    /// Total annual saving in euro.
    pub fn annual_saving_euro(&self) -> f64 {
        self.baseline_annual_euro - self.consolidated_annual_euro
    }

    /// Annual saving per virtualized workload, in euro.
    pub fn saving_per_vm_euro(&self) -> f64 {
        if self.vm_count == 0 {
            0.0
        } else {
            self.annual_saving_euro() / self.vm_count as f64
        }
    }
}

impl CostModel {
    /// Annual power+cooling cost of a plan, in euro.
    fn annual_cost_euro(&self, plan: &ConsolidationPlan) -> f64 {
        let it_watts = plan.total_power_watts();
        let total_watts = it_watts * self.cooling_factor;
        let kwh_per_year = total_watts / 1000.0 * HOURS_PER_YEAR;
        kwh_per_year * self.euro_per_kwh
    }

    /// Compare a baseline plan against a consolidated plan.
    pub fn compare(
        &self,
        baseline: &ConsolidationPlan,
        consolidated: &ConsolidationPlan,
    ) -> CostReport {
        CostReport {
            baseline_annual_euro: self.annual_cost_euro(baseline),
            consolidated_annual_euro: self.annual_cost_euro(consolidated),
            vm_count: consolidated.vms_placed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostSpec;
    use crate::placement::{ConsolidationPlanner, PlacementStrategy};
    use crate::vmspec::VmSpec;
    use rvisor_types::HostId;

    fn plans() -> (ConsolidationPlan, ConsolidationPlan) {
        let fleet = VmSpec::nireus_fleet();
        let planner = ConsolidationPlanner::new(HostSpec::deck_era_server(HostId::new(0)), 60);
        let baseline = planner.plan(&fleet, PlacementStrategy::OnePerHost).unwrap();
        let consolidated = planner
            .plan(&fleet, PlacementStrategy::FirstFitDecreasing)
            .unwrap();
        (baseline, consolidated)
    }

    #[test]
    fn consolidation_saves_money() {
        let (baseline, consolidated) = plans();
        let model = CostModel::default();
        let report = model.compare(&baseline, &consolidated);
        assert!(report.annual_saving_euro() > 0.0);
        assert_eq!(report.vm_count, 50);
    }

    #[test]
    fn savings_match_the_deck_claims_in_order_of_magnitude() {
        // The deck reports 200-250 €/server/year and ~10 k€/year overall for 50 VMs.
        let (baseline, consolidated) = plans();
        let report = CostModel::default().compare(&baseline, &consolidated);
        let per_vm = report.saving_per_vm_euro();
        let total = report.annual_saving_euro();
        assert!(
            (100.0..=400.0).contains(&per_vm),
            "per-VM saving {per_vm:.0} € not in the claimed ballpark"
        );
        assert!(
            (5_000.0..=20_000.0).contains(&total),
            "total saving {total:.0} € not in the claimed ballpark"
        );
    }

    #[test]
    fn cost_scales_with_tariff_and_cooling() {
        let (_, consolidated) = plans();
        let cheap = CostModel {
            euro_per_kwh: 0.10,
            cooling_factor: 1.2,
        };
        let pricey = CostModel {
            euro_per_kwh: 0.30,
            cooling_factor: 2.0,
        };
        assert!(
            pricey.annual_cost_euro(&consolidated) > 2.0 * cheap.annual_cost_euro(&consolidated)
        );
    }

    #[test]
    fn empty_report_is_zero() {
        let report = CostReport {
            baseline_annual_euro: 0.0,
            consolidated_annual_euro: 0.0,
            vm_count: 0,
        };
        assert_eq!(report.saving_per_vm_euro(), 0.0);
        assert_eq!(report.annual_saving_euro(), 0.0);
    }
}
