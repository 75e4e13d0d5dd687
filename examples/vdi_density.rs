//! Virtual Desktop Infrastructure sizing — the source material's stated next
//! step. Builds a pool of desktop VMs cloned from a golden image inside a
//! real `Vmm`, measures how much of their memory content-based page sharing
//! (KSM) gives back, and feeds the measured sharing fraction into the VDI
//! density estimator to answer "how many desktops fit on one host, and what
//! limits it?" (experiment E12). Then the estimate's two assumptions swept
//! on their own, and the two mechanisms it combines: ballooning, which lets
//! a host commit more memory than it has (E3), and content-based page
//! sharing across template clones (E11).
//!
//! ```text
//! cargo run --example vdi_density
//! ```

use virtlab::cluster::{
    ConsolidationPlanner, DesktopProfile, HostSpec, PlacementStrategy, ServerRole, VdiConfig,
    VdiEstimator, VmSpec,
};
use virtlab::memory::{analyze_sharing, Balloon, GuestMemory, KsmConfig, KsmManager};
use virtlab::types::{HostId, PAGE_SIZE};
use virtlab::vmm::VmConfig;
use virtlab::{ByteSize, GuestAddress, VmId, Vmm};

/// A recognisable "golden image" byte pattern seed shared by every clone.
const GOLDEN_IMAGE_SEED: u64 = 0x601d_1ace_0000;

fn main() {
    println!("== VDI density sizing ==\n");

    // 1. Stand up a small pool of desktops cloned from one golden image.
    //    Every clone shares the image's pages; each one then writes a private
    //    profile area (documents, caches) that diverges from the template.
    let mut vmm = Vmm::new("vdi-host");
    let desktops = 6u32;
    let guest_memory = ByteSize::mib(32);
    for d in 0..desktops {
        let id = vmm
            .create_vm(VmConfig::new(&format!("desktop-{d}")).with_memory(guest_memory))
            .expect("create desktop VM");
        let vm = vmm.vm(id).expect("vm exists");
        let pages = vm.memory().total_pages();
        for p in 0..pages {
            // 70% golden image, 30% user profile.
            let value = if p < pages * 7 / 10 {
                GOLDEN_IMAGE_SEED.wrapping_add(p * 131)
            } else {
                (d as u64 + 1) * 10_000_019 + p
            };
            vm.memory()
                .write_u64(GuestAddress(p * PAGE_SIZE), value)
                .expect("seed page");
        }
    }
    println!(
        "pool: {} desktops x {} = {} of configured guest RAM",
        desktops,
        guest_memory,
        ByteSize::new(guest_memory.as_u64() * desktops as u64)
    );

    // 2. Measure what a perfect scanner could share, then let the KSM-style
    //    scanner actually converge to it.
    let analysis = vmm.dedup_analysis().expect("dedup analysis");
    println!(
        "one-shot analysis: {} of {} pages unique, {:.1}% of memory shareable",
        analysis.unique_pages,
        analysis.total_pages,
        analysis.savings_fraction() * 100.0
    );
    let mut ksm = vmm.ksm_manager(KsmConfig::default());
    let rounds = ksm.scan_until_stable(8).expect("ksm scan");
    let stats = ksm.stats();
    println!(
        "ksm scanner: {} rounds, {} pages sharing {} canonical copies, {} MiB given back\n",
        rounds,
        stats.pages_sharing,
        stats.pages_shared,
        stats.bytes_saved() >> 20
    );

    // 3. Feed the measured sharing fraction into the density estimator for a
    //    modern consolidation host and compare desktop profiles.
    let host = HostSpec::modern_server(HostId::new(0));
    println!("host: {} cores, {} RAM", host.cores, host.memory);
    println!(
        "{:<18} {:>10} {:>10} {:>24} {:>12}",
        "profile", "baseline", "tuned", "effective mem/desktop", "limited by"
    );
    for profile in DesktopProfile::ALL {
        let config = VdiConfig::typical(profile).with_measured_sharing(&analysis);
        let estimator = VdiEstimator::new(host.clone(), config).expect("estimator");
        let tuned = estimator.density();
        let baseline = estimator.baseline_density();
        println!(
            "{:<18} {:>10} {:>10} {:>20} MiB {:>12}",
            profile.name(),
            baseline.desktops,
            tuned.desktops,
            tuned.effective_memory_per_desktop.as_u64() >> 20,
            tuned.limited_by.name()
        );
    }

    println!(
        "\nwith page sharing, ballooning and CPU oversubscription the host carries \
         {:.1}x more knowledge-worker desktops than a no-overcommit configuration",
        {
            let est = VdiEstimator::new(
                host.clone(),
                VdiConfig::typical(DesktopProfile::KnowledgeWorker)
                    .with_measured_sharing(&analysis),
            )
            .expect("estimator");
            est.density().improvement_over(&est.baseline_density())
        }
    );

    assumption_sweeps(&host);
    ballooning();
    page_sharing();
}

fn assumption_sweeps(host: &HostSpec) {
    println!("\n-- knowledge-worker density vs assumed page-sharing fraction --\n");
    println!(
        "{:>16} {:>22} {:>10}",
        "sharing fraction", "effective mem/desktop", "desktops"
    );
    for sharing in [0.0, 0.2, 0.35, 0.5, 0.7] {
        let config = VdiConfig {
            page_sharing_fraction: sharing,
            ..VdiConfig::typical(DesktopProfile::KnowledgeWorker)
        };
        let report = VdiEstimator::new(host.clone(), config)
            .expect("estimator")
            .density();
        println!(
            "{:>15.0}% {:>18} MiB {:>10}",
            sharing * 100.0,
            report.effective_memory_per_desktop.as_u64() >> 20,
            report.desktops
        );
    }

    println!("\n-- task-worker density vs vCPU:pCPU admission ratio --\n");
    println!("{:>8} {:>10} {:>12}", "ratio", "desktops", "limited by");
    for ratio in [1.0, 2.0, 4.0, 6.0, 8.0, 12.0] {
        let config = VdiConfig {
            max_vcpu_per_core: ratio,
            ..VdiConfig::typical(DesktopProfile::TaskWorker)
        };
        let report = VdiEstimator::new(host.clone(), config)
            .expect("estimator")
            .density();
        println!(
            "{:>7.0}:1 {:>10} {:>12}",
            ratio,
            report.desktops,
            report.limited_by.name()
        );
    }
}

fn ballooning() {
    let host = HostSpec::deck_era_server(HostId::new(0));
    println!(
        "\n-- VM density vs memory overcommit ({} host, 2 GiB VMs) --\n",
        host.memory
    );
    println!(
        "{:>12} {:>12} {:>18}",
        "overcommit", "VMs placed", "mem committed"
    );
    let fleet: Vec<VmSpec> = (0..64)
        .map(|i| VmSpec::typical(&format!("vm-{i}"), ServerRole::AppServer))
        .collect();
    for factor in [1.0, 1.25, 1.5, 1.75, 2.0] {
        let plan = ConsolidationPlanner::new(host.clone(), 1)
            .with_memory_overcommit(factor)
            .plan(&fleet, PlacementStrategy::FirstFitDecreasing)
            .expect("plan");
        println!(
            "{:>11.2}x {:>12} {:>17.0}%",
            factor,
            plan.vms_placed(),
            plan.avg_memory_utilization() * 100.0
        );
    }

    println!("\nballoon inflation in a 256 MiB guest (64 low pages reserved):");
    println!("{:>12} {:>12} {:>16}", "pages", "ballooned", "usable after");
    for pages in [1_000, 10_000, 50_000] {
        let mut balloon = Balloon::new(GuestMemory::flat(ByteSize::mib(256)).expect("guest"), 64);
        balloon.inflate(pages).expect("inflate");
        let stats = balloon.stats();
        println!(
            "{:>12} {:>12} {:>16}",
            pages,
            format!("{}", stats.ballooned),
            format!("{}", stats.usable)
        );
    }
}

/// A guest cloned from a template: `pages` pages of template content, of
/// which the trailing `private_fraction` hold data unique to clone `clone`.
fn template_clone(clone: u64, pages: u64, private_fraction: f64) -> GuestMemory {
    let mem = GuestMemory::flat(ByteSize::pages_of(pages)).expect("clone memory");
    let shared = pages - (pages as f64 * private_fraction).round() as u64;
    for p in 0..pages {
        let value = if p < shared {
            0x7e3a_0000_0000 + p * 97
        } else {
            (clone + 1) * 1_000_003 + p * 31
        };
        mem.write_u64(GuestAddress(p * PAGE_SIZE), value)
            .expect("seed page");
    }
    mem
}

fn clones(count: u64, size: ByteSize, private_fraction: f64) -> Vec<GuestMemory> {
    (0..count)
        .map(|c| template_clone(c, size.pages(), private_fraction))
        .collect()
}

fn scanner_over(vms: &[GuestMemory]) -> KsmManager {
    let mut ksm = KsmManager::new(KsmConfig::default());
    for (i, mem) in vms.iter().enumerate() {
        ksm.register_vm(VmId::new(i as u32), mem.clone());
    }
    ksm.scan_until_stable(6).expect("ksm scan");
    ksm
}

fn page_sharing() {
    let size = ByteSize::mib(8);
    println!("\n-- KSM savings vs number of template clones ({size} guests, 20% private) --\n");
    println!(
        "{:>7} {:>14} {:>14} {:>14} {:>12} {:>14}",
        "clones", "guest RAM", "pages shared", "pages sharing", "saved", "sharing ratio"
    );
    for count in [2, 4, 8, 16] {
        let stats = scanner_over(&clones(count, size, 0.2)).stats();
        println!(
            "{:>7} {:>10} MiB {:>14} {:>14} {:>8} MiB {:>13.1}x",
            count,
            (size.as_u64() * count) >> 20,
            stats.pages_shared,
            stats.pages_sharing,
            stats.bytes_saved() >> 20,
            stats.sharing_ratio()
        );
    }

    println!("\nKSM savings vs divergence from the template (8 clones of {size}):");
    println!(
        "{:>16} {:>14} {:>16} {:>18}",
        "private fraction", "saved", "saving fraction", "one-shot upper bound"
    );
    for private in [0.0, 0.1, 0.25, 0.5, 0.75, 1.0] {
        let vms = clones(8, size, private);
        let analysis = analyze_sharing(vms.iter()).expect("analysis");
        let stats = scanner_over(&vms).stats();
        println!(
            "{:>15.0}% {:>10} MiB {:>15.1}% {:>13} MiB",
            private * 100.0,
            stats.bytes_saved() >> 20,
            stats.bytes_saved() as f64 / (size.as_u64() * 8) as f64 * 100.0,
            analysis.bytes_saved() >> 20
        );
    }

    // Bursts of writes into clone 0's shared pages, each breaking one
    // copy-on-write share.
    let size = ByteSize::mib(16);
    println!("\nsharing decay under guest writes (4 clones of {size}):");
    println!(
        "{:>14} {:>12} {:>12}",
        "pages written", "cow breaks", "still saved"
    );
    let vms = clones(4, size, 0.0);
    let mut ksm = scanner_over(&vms);
    let mut written = 0;
    for burst in [0, 256, 1024, 2048] {
        for p in written..written + burst {
            let page = p % size.pages();
            vms[0]
                .write_u64(GuestAddress(page * PAGE_SIZE), 0xdead_0000 + p)
                .expect("guest write");
            ksm.notify_write(VmId::new(0), page);
        }
        written += burst;
        let stats = ksm.stats();
        println!(
            "{:>14} {:>12} {:>8} MiB",
            written,
            stats.cow_breaks,
            stats.bytes_saved() >> 20
        );
    }
}
