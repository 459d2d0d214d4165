//! Table 1 — the qualitative scheme comparison — as data, so
//! `ppt::figures` can regenerate the table and tests can assert the claimed
//! properties line up with what the implementations actually do.

/// How a scheme uses spare bandwidth (Table 1, "Spare bandwidth utilizing
/// pattern").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SparePattern {
    Passive,
    Aggressive,
    Graceful,
    /// Graceful but requires INT switch support.
    GracefulIntRequired,
    /// Passive with the first RTT wasted.
    PassiveFirstRttWasted,
}

impl SparePattern {
    pub fn label(&self) -> &'static str {
        match self {
            SparePattern::Passive => "Passive",
            SparePattern::Aggressive => "Aggressive",
            SparePattern::Graceful => "Graceful",
            SparePattern::GracefulIntRequired => "Graceful (but INT required)",
            SparePattern::PassiveFirstRttWasted => "Passive (1st RTT wasted)",
        }
    }
}

/// Scheduling column: Yes / not-applicable (rate control only) / needs
/// flow sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulingCol {
    Yes,
    RateControlOnly,
    NeedsFlowSize,
}

impl SchedulingCol {
    pub fn label(&self) -> &'static str {
        match self {
            SchedulingCol::Yes => "Yes",
            SchedulingCol::RateControlOnly => "x",
            SchedulingCol::NeedsFlowSize => "No (flow size required)",
        }
    }
}

/// One Table 1 row.
#[derive(Clone, Copy, Debug)]
pub struct SchemeRow {
    pub family: &'static str,
    pub name: &'static str,
    pub spare: SparePattern,
    pub scheduling: SchedulingCol,
    pub commodity_switches: bool,
    pub tcpip_compatible: bool,
    pub app_non_intrusive: bool,
}

/// The full table, in the paper's row order.
pub const TABLE1: &[SchemeRow] = &[
    SchemeRow {
        family: "Reactive",
        name: "DCTCP",
        spare: SparePattern::Passive,
        scheduling: SchedulingCol::RateControlOnly,
        commodity_switches: true,
        tcpip_compatible: true,
        app_non_intrusive: true,
    },
    SchemeRow {
        family: "Reactive",
        name: "TCP-10",
        spare: SparePattern::Passive,
        scheduling: SchedulingCol::RateControlOnly,
        commodity_switches: true,
        tcpip_compatible: true,
        app_non_intrusive: true,
    },
    SchemeRow {
        family: "Reactive",
        name: "Halfback",
        spare: SparePattern::Passive,
        scheduling: SchedulingCol::RateControlOnly,
        commodity_switches: true,
        tcpip_compatible: true,
        app_non_intrusive: true,
    },
    SchemeRow {
        family: "Reactive",
        name: "RC3",
        spare: SparePattern::Aggressive,
        scheduling: SchedulingCol::RateControlOnly,
        commodity_switches: true,
        tcpip_compatible: true,
        app_non_intrusive: true,
    },
    SchemeRow {
        family: "Reactive",
        name: "PIAS",
        spare: SparePattern::Passive,
        scheduling: SchedulingCol::Yes,
        commodity_switches: true,
        tcpip_compatible: true,
        app_non_intrusive: true,
    },
    SchemeRow {
        family: "Reactive",
        name: "HPCC",
        spare: SparePattern::GracefulIntRequired,
        scheduling: SchedulingCol::RateControlOnly,
        commodity_switches: false,
        tcpip_compatible: false,
        app_non_intrusive: true,
    },
    SchemeRow {
        family: "Proactive",
        name: "Homa",
        spare: SparePattern::Aggressive,
        scheduling: SchedulingCol::NeedsFlowSize,
        commodity_switches: true,
        tcpip_compatible: false,
        app_non_intrusive: false,
    },
    SchemeRow {
        family: "Proactive",
        name: "Aeolus",
        spare: SparePattern::Aggressive,
        scheduling: SchedulingCol::NeedsFlowSize,
        commodity_switches: true,
        tcpip_compatible: false,
        app_non_intrusive: false,
    },
    SchemeRow {
        family: "Proactive",
        name: "ExpressPass",
        spare: SparePattern::PassiveFirstRttWasted,
        scheduling: SchedulingCol::RateControlOnly,
        commodity_switches: true,
        tcpip_compatible: false,
        app_non_intrusive: false,
    },
    SchemeRow {
        family: "Proactive",
        name: "NDP",
        spare: SparePattern::PassiveFirstRttWasted,
        scheduling: SchedulingCol::RateControlOnly,
        commodity_switches: false,
        tcpip_compatible: false,
        app_non_intrusive: false,
    },
    SchemeRow {
        family: "",
        name: "PPT",
        spare: SparePattern::Graceful,
        scheduling: SchedulingCol::Yes,
        commodity_switches: true,
        tcpip_compatible: true,
        app_non_intrusive: true,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppt_is_the_only_fully_green_row() {
        let full: Vec<&SchemeRow> = TABLE1
            .iter()
            .filter(|r| {
                r.spare == SparePattern::Graceful
                    && r.scheduling == SchedulingCol::Yes
                    && r.commodity_switches
                    && r.tcpip_compatible
                    && r.app_non_intrusive
            })
            .collect();
        assert_eq!(full.len(), 1);
        assert_eq!(full[0].name, "PPT");
    }

    #[test]
    fn table_has_eleven_rows() {
        assert_eq!(TABLE1.len(), 11);
    }
}
