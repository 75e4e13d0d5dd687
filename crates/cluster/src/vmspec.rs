//! Virtual-machine resource specifications.

use serde::{Deserialize, Serialize};

use rvisor_types::ByteSize;

/// What a virtual server does — the roles enumerated in the source
/// material's production estate, used to give the synthetic fleet realistic
/// resource shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServerRole {
    /// Active Directory domain controller.
    DomainController,
    /// ERP / line-of-business application server.
    AppServer,
    /// Relational database server.
    Database,
    /// Terminal server for thin clients.
    TerminalServer,
    /// Mail / groupware server.
    Mail,
    /// Web server.
    Web,
    /// Antivirus management server.
    Antivirus,
    /// Developer / test machine.
    TestDev,
    /// Legacy desktop OS kept alive for an old application.
    LegacyDesktop,
}

impl ServerRole {
    /// A typical resource shape for the role: (vCPUs, memory, sustained CPU
    /// utilisation as a fraction of one core).
    fn typical_shape(self) -> (u32, ByteSize, f64) {
        match self {
            ServerRole::DomainController => (1, ByteSize::gib(1), 0.10),
            ServerRole::AppServer => (2, ByteSize::gib(2), 0.35),
            ServerRole::Database => (2, ByteSize::gib(3), 0.45),
            ServerRole::TerminalServer => (2, ByteSize::gib(2), 0.40),
            ServerRole::Mail => (2, ByteSize::gib(2), 0.30),
            ServerRole::Web => (1, ByteSize::gib(1), 0.20),
            ServerRole::Antivirus => (1, ByteSize::gib(1), 0.15),
            ServerRole::TestDev => (1, ByteSize::gib(1), 0.05),
            ServerRole::LegacyDesktop => (1, ByteSize::mib(512), 0.05),
        }
    }

    /// All roles (for building synthetic fleets).
    pub const ALL: [ServerRole; 9] = [
        ServerRole::DomainController,
        ServerRole::AppServer,
        ServerRole::Database,
        ServerRole::TerminalServer,
        ServerRole::Mail,
        ServerRole::Web,
        ServerRole::Antivirus,
        ServerRole::TestDev,
        ServerRole::LegacyDesktop,
    ];
}

/// The resources a virtual machine needs from its host.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmSpec {
    /// Name (unique within a plan).
    pub name: String,
    /// Role (drives the default shape).
    pub role: ServerRole,
    /// Number of vCPUs.
    pub vcpus: u32,
    /// Configured memory.
    pub memory: ByteSize,
    /// Sustained CPU demand in fractions of one physical core.
    pub cpu_demand_cores: f64,
}

impl VmSpec {
    /// A spec with the role's typical shape.
    pub fn typical(name: &str, role: ServerRole) -> Self {
        let (vcpus, memory, util) = role.typical_shape();
        VmSpec {
            name: name.to_string(),
            role,
            vcpus,
            memory,
            cpu_demand_cores: util * vcpus as f64,
        }
    }

    /// Override the memory size (builder style).
    pub fn with_memory(mut self, memory: ByteSize) -> Self {
        self.memory = memory;
        self
    }

    /// Override the CPU demand (builder style).
    pub fn with_cpu_demand(mut self, cores: f64) -> Self {
        self.cpu_demand_cores = cores.max(0.0);
        self
    }

    /// Build the 50-VM production fleet the source material describes
    /// (domain controllers, ERP application servers, MSSQL databases,
    /// terminal servers, mail, web, antivirus, plus test/dev machines).
    pub fn nireus_fleet() -> Vec<VmSpec> {
        let mut fleet = Vec::new();
        let mut add = |count: usize, role: ServerRole, prefix: &str| {
            for i in 0..count {
                fleet.push(VmSpec::typical(&format!("{prefix}-{i}"), role));
            }
        };
        add(3, ServerRole::DomainController, "ad");
        add(10, ServerRole::AppServer, "erp-app");
        add(6, ServerRole::Database, "mssql");
        add(8, ServerRole::TerminalServer, "ts");
        add(2, ServerRole::Mail, "zimbra");
        add(4, ServerRole::Web, "web");
        add(2, ServerRole::Antivirus, "av");
        add(10, ServerRole::TestDev, "dev");
        add(5, ServerRole::LegacyDesktop, "legacy");
        fleet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl VmSpec {
        /// Override the vCPU count (builder style).
        pub(crate) fn with_vcpus(mut self, vcpus: u32) -> Self {
            self.vcpus = vcpus.max(1);
            self
        }
    }

    #[test]
    fn typical_shapes_are_sane() {
        for role in ServerRole::ALL {
            let (vcpus, mem, util) = role.typical_shape();
            assert!(vcpus >= 1);
            assert!(mem >= ByteSize::mib(256));
            assert!(util > 0.0 && util <= 1.0);
        }
    }

    #[test]
    fn builders() {
        let spec = VmSpec::typical("db-1", ServerRole::Database)
            .with_memory(ByteSize::gib(8))
            .with_vcpus(4)
            .with_cpu_demand(2.5);
        assert_eq!(spec.memory, ByteSize::gib(8));
        assert_eq!(spec.vcpus, 4);
        assert!((spec.cpu_demand_cores - 2.5).abs() < 1e-12);
        assert_eq!(VmSpec::typical("x", ServerRole::Web).with_vcpus(0).vcpus, 1);
        assert_eq!(
            VmSpec::typical("x", ServerRole::Web)
                .with_cpu_demand(-1.0)
                .cpu_demand_cores,
            0.0
        );
    }

    #[test]
    fn nireus_fleet_has_fifty_vms() {
        let fleet = VmSpec::nireus_fleet();
        assert_eq!(fleet.len(), 50);
        // Names are unique.
        let names: std::collections::BTreeSet<_> = fleet.iter().map(|v| v.name.clone()).collect();
        assert_eq!(names.len(), 50);
        // Aggregate memory demand is in a plausible range (tens of GiB).
        let total_mem: u64 = fleet.iter().map(|v| v.memory.as_u64()).sum();
        assert!(total_mem > 50 * (1 << 30) && total_mem < 120 * (1 << 30));
    }
}
