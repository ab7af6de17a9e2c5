//! The one-switch star both full-stack workloads run on, built two ways.
//!
//! The end-to-end runs use `Testbed::star`, the public constructor `repro`
//! uses. `Testbed` keeps its node slots private, so the traced run
//! rebuilds the same star from public calls in [`Star`], copying
//! `Testbed`'s node order, addresses, client ports and ISS sequence, and
//! wraps every node and app in a timing adapter. The package's tests
//! pin the two builds to identical simulations.

use acdc_core::host::{ConnTaps, FlowHandle};
use acdc_core::{HostNode, MultiApp, Scheme, Testbed};
use acdc_netsim::{Network, NodeId, PortId, SwitchCounters, SwitchNode};
use acdc_packet::FlowKey;
use acdc_stats::time::Nanos;
use acdc_telemetry::Telemetry;
use acdc_workloads::App;

use crate::trace::{Layer, TimedApp, TimedMultiApp, TimedNode};

/// What a full-stack workload needs from its topology.
pub trait Topo {
    /// The simulator.
    fn net(&mut self) -> &mut Network;
    /// Host `i`.
    fn host(&mut self, i: usize) -> &mut HostNode;
    /// Number of hosts.
    fn hosts(&self) -> usize;
    /// Open a connection from `client` to `server` at `start` with the
    /// given per-connection apps.
    fn add_flow(
        &mut self,
        client: usize,
        server: usize,
        client_app: Option<Box<dyn App>>,
        server_app: Option<Box<dyn App>>,
        start: Nanos,
    ) -> FlowHandle;
    /// Install a host-level app on host `i`.
    fn add_multi_app(&mut self, i: usize, app: Box<dyn MultiApp>);
    /// The switch's counters.
    fn switch_counters(&mut self) -> SwitchCounters;

    /// Index of a flow's client connection on its host.
    fn client_conn_index(&mut self, h: FlowHandle) -> usize {
        let host = self.host(h.client_host);
        (0..host.conn_count())
            .find(|&i| host.endpoint(i).flow_key() == h.key)
            .expect("flow was added to its client host")
    }

    /// Packets delivered at every node port so far. A star of `n` hosts
    /// has ports `0..2n`, two per access link.
    fn delivered_pkts(&mut self) -> u64 {
        let ports = 2 * self.hosts();
        let net = self.net();
        (0..ports)
            .map(|p| net.port_counters(PortId(p)).rx_pkts)
            .sum()
    }
}

impl Topo for Testbed {
    fn net(&mut self) -> &mut Network {
        &mut self.net
    }

    fn host(&mut self, i: usize) -> &mut HostNode {
        self.host_mut(i)
    }

    fn hosts(&self) -> usize {
        self.host_count()
    }

    fn add_flow(
        &mut self,
        client: usize,
        server: usize,
        client_app: Option<Box<dyn App>>,
        server_app: Option<Box<dyn App>>,
        start: Nanos,
    ) -> FlowHandle {
        Testbed::add_flow(
            self,
            client,
            server,
            client_app,
            server_app,
            start,
            ConnTaps::default(),
        )
    }

    fn add_multi_app(&mut self, i: usize, app: Box<dyn MultiApp>) {
        self.host_mut(i).add_multi_app(app);
    }

    fn switch_counters(&mut self) -> SwitchCounters {
        Testbed::switch_counters(self, 0)
    }
}

/// `Testbed::star`, rebuilt from public calls with every node and app
/// wrapped in a timing adapter.
pub struct Star {
    net: Network,
    scheme: Scheme,
    mtu: usize,
    switch: NodeId,
    hosts: Vec<NodeId>,
    ips: Vec<[u8; 4]>,
    next_port: Vec<u16>,
    iss: u32,
}

impl Star {
    /// `n` hosts on one switch, as `Testbed::star(n, scheme, mtu)` builds
    /// them.
    pub fn new(n: usize, scheme: Scheme, mtu: usize) -> Star {
        let mut net = Network::new();
        // Attached before any `connect`, as `Testbed` does, so every
        // port's counters register.
        net.set_telemetry(Telemetry::with_default_capacity());
        let cfg = scheme.switch_config(Testbed::mark_threshold());
        let switch = net.add_node(Box::new(TimedNode::new(
            SwitchNode::new(cfg),
            [
                Layer::SwitchPacket,
                Layer::SwitchTxStart,
                Layer::SwitchTimer,
            ],
        )));
        let mut star = Star {
            net,
            scheme,
            mtu,
            switch,
            hosts: Vec::new(),
            ips: Vec::new(),
            next_port: Vec::new(),
            iss: 7,
        };
        for i in 0..n {
            star.add_host(i);
        }
        star
    }

    fn add_host(&mut self, i: usize) {
        let ip = [10, 0, (i / 250) as u8, (i % 250 + 1) as u8];
        let node = self.net.reserve_node();
        let (host_port, switch_port) =
            self.net
                .connect(node, self.switch, acdc_core::testbed::default_link());
        let host = HostNode::new(ip, host_port, self.scheme.acdc_config(self.mtu));
        self.net.install(
            node,
            Box::new(TimedNode::new(
                host,
                [Layer::HostPacket, Layer::HostTxStart, Layer::HostTimer],
            )),
        );
        self.net
            .node_mut::<SwitchNode>(self.switch)
            .expect("the switch stays reachable through its adapter")
            .add_route(ip, switch_port);
        self.hosts.push(node);
        self.ips.push(ip);
        self.next_port.push(40_000);
    }

    /// The same client port and ISS pair `Testbed` would hand out next.
    fn next_flow_params(&mut self, client: usize) -> (u16, u32, u32) {
        let port = self.next_port[client];
        self.next_port[client] += 1;
        self.iss = self.iss.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        let iss_c = self.iss;
        self.iss = self.iss.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        (port, iss_c, self.iss)
    }
}

impl Topo for Star {
    fn net(&mut self) -> &mut Network {
        &mut self.net
    }

    fn host(&mut self, i: usize) -> &mut HostNode {
        self.net
            .node_mut::<HostNode>(self.hosts[i])
            .expect("hosts stay reachable through their adapters")
    }

    fn hosts(&self) -> usize {
        self.hosts.len()
    }

    fn add_flow(
        &mut self,
        client: usize,
        server: usize,
        client_app: Option<Box<dyn App>>,
        server_app: Option<Box<dyn App>>,
        start: Nanos,
    ) -> FlowHandle {
        assert_ne!(client, server, "flow endpoints must differ");
        let (cport, iss_c, iss_s) = self.next_flow_params(client);
        let sport = 5_001;
        let (cip, sip) = (self.ips[client], self.ips[server]);
        let ccfg = self
            .scheme
            .tcp_config(cip, cport, sip, sport, self.mtu, iss_c);
        let scfg = self
            .scheme
            .tcp_config(sip, sport, cip, cport, self.mtu, iss_s);
        let timed = |app: Option<Box<dyn App>>| app.map(|a| Box::new(TimedApp(a)) as Box<dyn App>);
        self.host(client).add_connection(
            ccfg,
            true,
            Some(start),
            timed(client_app),
            ConnTaps::default(),
        );
        self.host(server)
            .add_connection(scfg, false, None, timed(server_app), ConnTaps::default());
        let client_id = self.hosts[client];
        self.net.schedule_timer_at(client_id, start, 0);
        FlowHandle {
            client_host: client,
            server_host: server,
            key: FlowKey {
                src_ip: cip,
                dst_ip: sip,
                src_port: cport,
                dst_port: sport,
            },
        }
    }

    fn add_multi_app(&mut self, i: usize, app: Box<dyn MultiApp>) {
        self.host(i).add_multi_app(Box::new(TimedMultiApp(app)));
    }

    fn switch_counters(&mut self) -> SwitchCounters {
        self.net
            .node_mut::<SwitchNode>(self.switch)
            .expect("the switch stays reachable through its adapter")
            .counters()
    }
}
