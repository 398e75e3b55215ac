//! The campaign axes, declared once each.
//!
//! Every sweep axis of a campaign grid is one entry of the [`axes!`]
//! invocation at the end of this module. The entry order is the
//! enumeration order (first axis outermost, seeds innermost), the
//! coordinate-label order and the key order of the spec and artifact
//! JSON. From the entries the macro generates:
//!
//! * the [`Grid`] and [`Coord`] fields;
//! * spec JSON encode and parse, and [`Grid::runs_per_scenario`];
//! * the odometer that enumerates a grid's coordinates;
//! * the content-hash label ([`Coord::label`]): axes marked `always`
//!   render `-` when unset, axes marked `if_set` render only when set;
//! * the artifact coordinate codec, which tolerates a key that is absent
//!   from records older than the axis (`since`);
//! * the summary group label (`M=4`, `S=62ms`, `tc=on`, …);
//! * per-value validation (`one_of`, `reject`), repeated-value rejection
//!   and name interning;
//! * the axes `campaign frontier` can bisect ([`BISECTABLE`]).
//!
//! How axes combine stays explicit code: [`crate::matrix::materialize`]
//! with its family rules, [`Coord::prefix_label`] and the derived seeds,
//! and the cross-axis checks of [`crate::spec::CampaignSpec::validate`].

use crate::json::Json;
use crate::spec::{
    discipline_name, parse_discipline, KernelChoice, SpecError, FLEET_TOPOLOGY_NAMES,
    TOPOLOGY_NAMES,
};
use clocksync::scenario::ScenarioKind;
use std::fmt::{self, Write};
use tsn_faults::ByzantineStrategy;
use tsn_hyp::SyncClockDiscipline;

/// A value a campaign axis takes in a run coordinate, with its spelling
/// in the spec grid, in JSON and in labels.
pub trait AxisValue: Copy + PartialEq + fmt::Debug {
    /// How the spec grid stores the value: the value itself, or an owned
    /// name that interns to it.
    type Spec: Clone + PartialEq + fmt::Debug;
    /// The coordinate value of a grid entry of axis `key`.
    fn of_spec(spec: &Self::Spec, key: &str) -> Result<Self, SpecError>;
    /// The grid entry of a probe value on a bisected axis (`None`: the
    /// value does not fit the axis).
    fn of_probe(_probe: u64) -> Option<Self::Spec> {
        None
    }
    /// The spec-JSON form of a grid entry.
    fn spec_json(spec: &Self::Spec) -> Json;
    /// Parses a grid entry from spec JSON.
    fn parse_spec(v: &Json) -> Option<Self::Spec>;
    /// The artifact-JSON form of the value.
    fn to_json(self) -> Json;
    /// Parses the value from artifact JSON.
    fn from_json(v: &Json) -> Option<Self>;
    /// Writes the value as the content-hash label spells it.
    fn fmt_label(self, f: &mut fmt::Formatter<'_>) -> fmt::Result;
    /// Writes the value as the summary group label spells it.
    fn fmt_group(self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_label(f)
    }
}

macro_rules! value_is_spec {
    ($t:ty) => {
        type Spec = $t;
        fn of_spec(spec: &$t, _key: &str) -> Result<$t, SpecError> {
            Ok(*spec)
        }
        fn spec_json(spec: &$t) -> Json {
            spec.to_json()
        }
        fn parse_spec(v: &Json) -> Option<$t> {
            Self::from_json(v)
        }
    };
}

macro_rules! integer_values {
    ($($t:ty),*) => {$(
        impl AxisValue for $t {
            value_is_spec!($t);
            fn of_probe(probe: u64) -> Option<$t> {
                <$t>::try_from(probe).ok()
            }
            fn to_json(self) -> Json {
                Json::UInt(self as u64)
            }
            fn from_json(v: &Json) -> Option<$t> {
                v.as_u64().and_then(|x| <$t>::try_from(x).ok())
            }
            fn fmt_label(self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{self}")
            }
        }
    )*};
}

integer_values!(u32, u64, usize);

impl AxisValue for bool {
    value_is_spec!(bool);
    fn to_json(self) -> Json {
        Json::Bool(self)
    }
    fn from_json(v: &Json) -> Option<bool> {
        v.as_bool()
    }
    fn fmt_label(self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
    fn fmt_group(self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self { "on" } else { "off" })
    }
}

macro_rules! named_values {
    ($($t:ty: $name:path, $parse:path;)*) => {$(
        impl AxisValue for $t {
            value_is_spec!($t);
            fn to_json(self) -> Json {
                Json::Str($name(self).to_string())
            }
            fn from_json(v: &Json) -> Option<$t> {
                v.as_str().and_then($parse)
            }
            fn fmt_label(self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str($name(self))
            }
        }
    )*};
}

named_values! {
    KernelChoice: KernelChoice::name, KernelChoice::parse;
    SyncClockDiscipline: discipline_name, parse_discipline;
}

/// Name axes store owned names in the grid and interned `&'static`
/// names in the coordinate, so [`Coord`] stays `Copy`. Which names an
/// axis accepts is its `one_of` table.
impl AxisValue for &'static str {
    type Spec = String;
    fn of_spec(spec: &String, key: &str) -> Result<Self, SpecError> {
        intern(spec).ok_or_else(|| SpecError::Value(format!("grid.{key}[]"), spec.clone()))
    }
    fn spec_json(spec: &String) -> Json {
        Json::Str(spec.clone())
    }
    fn parse_spec(v: &Json) -> Option<String> {
        v.as_str().map(str::to_string)
    }
    fn to_json(self) -> Json {
        Json::Str(self.to_string())
    }
    fn from_json(v: &Json) -> Option<Self> {
        v.as_str().and_then(intern)
    }
    fn fmt_label(self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

/// The `&'static` spelling of any name a name axis accepts.
fn intern(name: &str) -> Option<&'static str> {
    ByzantineStrategy::NAMES
        .iter()
        .chain(&TOPOLOGY_NAMES)
        .chain(&FLEET_TOPOLOGY_NAMES)
        .copied()
        .find(|n| *n == name)
}

/// Displays a value as the content-hash label spells it.
struct Label<T>(T);

impl<T: AxisValue> fmt::Display for Label<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt_label(f)
    }
}

/// Displays a value as the summary group label spells it.
struct Group<T>(T);

impl<T: AxisValue> fmt::Display for Group<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt_group(f)
    }
}

/// Reads the optional array `key` of a spec grid.
fn list<T>(v: &Json, key: &str, item: fn(&Json) -> Option<T>) -> Result<Vec<T>, SpecError> {
    match v.get(key) {
        None => Ok(Vec::new()),
        Some(arr) => arr
            .as_array()
            .ok_or_else(|| SpecError::Field(format!("grid.{key}")))?
            .iter()
            .map(|x| item(x).ok_or_else(|| SpecError::Field(format!("grid.{key}[]"))))
            .collect(),
    }
}

/// Rejects a value listed twice: both copies would share one run hash,
/// one artifact and one `.tmp` file, and count twice in every summary.
pub(crate) fn no_repeats<T: PartialEq + fmt::Debug>(
    axis: &str,
    values: &[T],
) -> Result<(), SpecError> {
    match (1..values.len()).find(|&i| values[..i].contains(&values[i])) {
        Some(i) => Err(SpecError::Invalid(format!(
            "{axis} repeats the value {:?}",
            values[i]
        ))),
        None => Ok(()),
    }
}

/// One axis's coordinate values, checked: a single `None` when the axis
/// is inactive (empty).
fn axis_values<T: AxisValue>(
    key: &str,
    specs: &[T::Spec],
    check: fn(T) -> Result<(), SpecError>,
) -> Result<Vec<Option<T>>, SpecError> {
    no_repeats(&format!("grid.{key}"), specs)?;
    if specs.is_empty() {
        return Ok(vec![None]);
    }
    specs
        .iter()
        .map(|spec| {
            let value = T::of_spec(spec, key)?;
            check(value)?;
            Ok(Some(value))
        })
        .collect()
}

macro_rules! axes {
    (@label always $out:ident, $value:expr, $key:literal) => {
        match $value {
            Some(v) => {
                let _ = write!($out, concat!("/", $key, "={}"), Label(v));
            }
            None => $out.push_str(concat!("/", $key, "=-")),
        }
    };
    (@label if_set $out:ident, $value:expr, $key:literal) => {
        if let Some(v) = $value {
            let _ = write!($out, concat!("/", $key, "={}"), Label(v));
        }
    };
    (@name $flag:ident $grid:ident) => {
        stringify!($grid)
    };
    (@since) => {
        crate::artifact::ARTIFACT_SCHEMA_COMPAT
    };
    (@since $since:literal) => {
        $since
    };
    ($(
        $(#[$doc:meta])*
        $grid:ident / $coord:ident: $ty:ty => $mode:ident $label:literal $(($bisect:ident))?,
            group $group:literal
            $(, since $since:literal)?
            $(, one_of $names:expr)?
            $(, reject |$v:ident| $bad:expr => $msg:literal)?;
    )*) => {
        /// The parameter grid. Every axis except `seeds` may be empty,
        /// meaning "keep the base/scenario value"; the run matrix is the
        /// cross product of all non-empty axes.
        #[derive(Debug, Clone, PartialEq, Default)]
        pub struct Grid {
            /// Experiment seeds (the replication axis; must be non-empty).
            pub seeds: Vec<u64>,
            $($(#[$doc])* pub $grid: Vec<<$ty as AxisValue>::Spec>,)*
        }

        /// One point of the campaign grid. An axis field is `None` when
        /// the axis is inactive (empty in the grid).
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub struct Coord {
            /// The scenario.
            pub scenario: ScenarioKind,
            /// The grid seed (replication axis).
            pub seed: u64,
            $($(#[$doc])* pub $coord: Option<$ty>,)*
        }

        /// Every axis's checked coordinate values (see [`axis_values`]).
        struct Values {
            $($coord: Vec<Option<$ty>>,)*
        }

        /// The per-value check of every axis.
        struct Checks {
            $($coord: fn($ty) -> Result<(), SpecError>,)*
        }

        const CHECKS: Checks = Checks {
            $($coord: |_value| {
                $(
                    if !$names.contains(&_value) {
                        return Err(SpecError::Value(
                            concat!("grid.", stringify!($grid), "[]").to_string(),
                            _value.to_string(),
                        ));
                    }
                )?
                $(
                    let $v = _value;
                    if $bad {
                        return Err(SpecError::Invalid(format!($msg)));
                    }
                )?
                Ok(())
            },)*
        };

        /// The continuous axes `campaign frontier` can bisect.
        pub const BISECTABLE: &[&str] = &[$($(axes!(@name $bisect $grid),)?)*];

        impl Grid {
            /// Number of runs this grid expands to (per scenario).
            pub fn runs_per_scenario(&self) -> usize {
                self.seeds.len() $(* self.$grid.len().max(1))*
            }

            pub(crate) fn to_json(&self) -> Json {
                Json::object(vec![
                    ("seeds", Json::Array(self.seeds.iter().map(|&s| Json::UInt(s)).collect())),
                    $((
                        stringify!($grid),
                        Json::Array(self.$grid.iter().map(<$ty as AxisValue>::spec_json).collect()),
                    ),)*
                ])
            }

            pub(crate) fn from_json(v: &Json) -> Result<Grid, SpecError> {
                Ok(Grid {
                    seeds: list(v, "seeds", Json::as_u64)?,
                    $($grid: list(v, stringify!($grid), <$ty as AxisValue>::parse_spec)?,)*
                })
            }

            fn values(&self) -> Result<Values, SpecError> {
                no_repeats("grid.seeds", &self.seeds)?;
                Ok(Values {
                    $($coord: axis_values(stringify!($grid), &self.$grid, CHECKS.$coord)?,)*
                })
            }

            /// Checks every value of every axis on its own: known names,
            /// supported ranges, no value listed twice.
            pub(crate) fn check(&self) -> Result<(), SpecError> {
                self.values().map(drop)
            }

            /// The grid's coordinates in canonical order: scenarios
            /// outermost, then the axes in declaration order, seeds
            /// innermost. An odometer: each run index is read as a
            /// mixed-radix number whose digits index the axes' values.
            pub(crate) fn coords(&self, scenarios: &[ScenarioKind]) -> Result<Vec<Coord>, SpecError> {
                let values = self.values()?;
                let per_scenario = self.runs_per_scenario();
                let mut coords = Vec::with_capacity(scenarios.len() * per_scenario);
                for &scenario in scenarios {
                    for run in 0..per_scenario {
                        let (mut rest, mut span) = (run, per_scenario);
                        $(
                            span /= values.$coord.len();
                            let $coord = values.$coord[rest / span];
                            rest %= span;
                        )*
                        coords.push(Coord { scenario, seed: self.seeds[rest], $($coord,)* });
                    }
                }
                Ok(coords)
            }

            /// Sets bisectable axis `axis` to the single value `probe`.
            ///
            /// # Errors
            ///
            /// An axis not in [`BISECTABLE`], or a probe value its type
            /// cannot hold.
            pub(crate) fn set_probe(&mut self, axis: &str, probe: u64) -> Result<(), SpecError> {
                $($(
                    if axis == axes!(@name $bisect $grid) {
                        let value = <$ty as AxisValue>::of_probe(probe).ok_or_else(|| {
                            SpecError::Invalid(format!("probe value {probe} does not fit {axis}"))
                        })?;
                        self.$grid = vec![value];
                        return Ok(());
                    }
                )?)*
                Err(SpecError::Value("axis.name".to_string(), axis.to_string()))
            }
        }

        /// Holds every declared axis to [`tests::axis_contract`].
        #[cfg(test)]
        fn check_every_axis() {
            $(tests::axis_contract::<$ty>(
                tests::Axis {
                    grid: stringify!($grid),
                    coord: stringify!($coord),
                    label: $label,
                    always: stringify!($mode) == "always",
                    since: axes!(@since $($since)?),
                },
                |g| &mut g.$grid,
                |c| &mut c.$coord,
                CHECKS.$coord,
            );)*
        }

        impl Coord {
            /// A coordinate with every axis inactive.
            pub fn new(scenario: ScenarioKind, seed: u64) -> Coord {
                Coord { scenario, seed, $($coord: None,)* }
            }

            /// The canonical label of this coordinate (stable across
            /// releases; content hashes are derived from it).
            pub fn label(&self) -> String {
                let mut label = String::with_capacity(192);
                let _ = write!(label, "scenario={}/seed={}", self.scenario.name(), self.seed);
                $(axes!(@label $mode label, self.$coord, $label);)*
                label
            }

            /// The summary label of the coordinate's group: the scenario
            /// and every active axis, seed excluded.
            pub(crate) fn group_label(&self) -> String {
                let mut label = self.scenario.name().to_string();
                $(
                    if let Some(v) = self.$coord {
                        label.push(' ');
                        let _ = write!(label, $group, Group(v));
                    }
                )*
                label
            }

            /// The artifact-JSON form of the coordinate.
            pub(crate) fn to_json(self) -> Json {
                Json::object(vec![
                    ("scenario", Json::Str(self.scenario.name().to_string())),
                    ("seed", Json::UInt(self.seed)),
                    $((
                        stringify!($coord),
                        self.$coord.map_or(Json::Null, <$ty as AxisValue>::to_json),
                    ),)*
                ])
            }

            /// Parses an artifact coordinate written under `schema`.
            pub(crate) fn from_json(v: &Json, schema: u64) -> Option<Coord> {
                let scenario = ScenarioKind::parse(v.get("scenario")?.as_str()?)?;
                let mut coord = Coord::new(scenario, v.get("seed")?.as_u64()?);
                $(
                    coord.$coord = match v.get(stringify!($coord)) {
                        Some(Json::Null) => None,
                        Some(x) => Some(
                            <$ty as AxisValue>::from_json(x)
                                .filter(|&x| (CHECKS.$coord)(x).is_ok())?,
                        ),
                        None if schema < axes!(@since $($since)?) => None,
                        None => return None,
                    };
                )*
                Some(coord)
            }
        }
    };
}

axes! {
    /// Domain counts M (set `nodes` and `aggregation.domains`, ABL2).
    domains / domains: usize => always "domains", group "M={}",
        reject |m| !(4..=16).contains(&m)
            => "domains axis value {m} outside the supported 4..=16 (FTA needs N > 3f)";
    /// Sync intervals S in milliseconds (staleness follows as 4·S, ABL3).
    sync_interval_ms / sync_interval_ms: u64 => always "sync_ms" (bisect), group "S={}ms",
        reject |s| s == 0 => "sync interval of 0 ms";
    /// Kernel assignments (override the scenario's choice).
    kernels / kernel: KernelChoice => always "kernel", group "kernels={}";
    /// Injector rates: random redundant-VM shutdowns per node per hour
    /// (set `random_per_hour_max`, enabling the injector if needed).
    fault_rate_per_hour / fault_rate_per_hour: u32 => always "rate", group "rate={}/h";
    /// `CLOCK_SYNCTIME` disciplines.
    disciplines / discipline: SyncClockDiscipline => always "discipline", group "{}";
    /// Adversary strategies ([`ByzantineStrategy::NAMES`] presets),
    /// applied to the compromised GMs from strike time onward.
    strategies / strategy: &'static str => always "strategy", group "adv={}",
        one_of ByzantineStrategy::NAMES;
    /// Compromised GM domains per run (`0` is the honest control cell;
    /// `f + 1` and beyond are negative-control cells).
    compromised / compromised: usize => always "byz", group "byz={}",
        reject |n| n > 3 => "compromised axis value {n} exceeds the 3 strikeable GM domains";
    /// Per-link i.i.d. frame-loss probabilities, in permille (‰).
    loss_permille / loss_permille: u32 => always "loss_pm" (bisect), group "loss={}pm",
        reject |p| p > 1000 => "loss_permille axis value {p} is not a probability (max 1000)";
    /// Partition durations in seconds: node 0 is cut off the switch mesh
    /// 2 s after the warm-up for this long (`0` means no cut; see
    /// [`crate::spec::partition_window`]).
    partition_s / partition_s: u64 => always "partition_s" (bisect), group "partition={}s";
    /// Dynamic BMCA grandmaster election on/off. Omitted, the election
    /// activates implicitly whenever any of the other election axes is
    /// active; an explicit `false` keeps the paper's static assignment
    /// and ignores those axes (the honest control).
    election / election: bool => if_set "election", group "election={}";
    /// Announce intervals of acting masters, in milliseconds (activates
    /// the election; default 250 ms).
    announce_interval_ms / announce_interval_ms: u64 => if_set "announce_ms",
        group "announce={}ms",
        reject |ms| ms == 0 => "announce interval of 0 ms";
    /// Scheduled grandmaster kill: seconds after the warm-up at which
    /// node 0's GM VM is permanently shut down, forcing domain 0 to
    /// re-elect (activates the election).
    gm_failure_at_s / gm_failure_at_s: u64 => if_set "gm_kill_s", group "gm-kill={}s";
    /// Rogue masters: compromised nodes (highest indices) that forge a
    /// best-possible priority vector on their foreign target domain
    /// (`0` is the honest control; activates the election).
    rogue_master / rogue_master: usize => if_set "rogue", group "rogue={}",
        reject |n| n > 3
            => "rogue_master axis value {n} exceeds the 3 capturable foreign domains";
    /// Fabric depths: hops through the line of TSN switches between
    /// sender and receiver (activates the fabric; default 1 hop).
    hops / hops: u32 => if_set "hops", group "hops={}",
        reject |h| !(1..=64).contains(&h) => "hops axis value {h} outside the supported 1..=64";
    /// Best-effort cross-traffic loads on each fabric egress port, in
    /// percent of the gate-open window (activates the fabric).
    cross_traffic_pct / cross_traffic_pct: u32 => if_set "xload_pct", group "xload={}%",
        reject |p| p > 95
            => "cross_traffic_pct axis value {p} exceeds the 95 % gate-load ceiling";
    /// Directional link-delay asymmetries per fabric hop, in nanoseconds
    /// (activates the fabric).
    asymmetry_ns / asymmetry_ns: u64 => if_set "asym_ns", group "asym={}ns",
        reject |a| a > 1_000_000
            => "asymmetry_ns axis value {a} exceeds 1 ms per hop (not a plausible link)";
    /// Transparent-clock modes: `true` accumulates per-hop residence into
    /// the gPTP correction field, `false` leaves the raw end-to-end
    /// queuing error (activates the fabric).
    tc_mode / tc_mode: bool => if_set "tc", group "tc={}";
    /// Fabric topologies ([`TOPOLOGY_NAMES`] spellings; activates the
    /// fabric). Omitted, fabric runs use a line of switches.
    topology / topology: &'static str => if_set "topo", group "topo={}",
        one_of TOPOLOGY_NAMES;
    /// Adversary shift magnitudes in nanoseconds: each replaces the
    /// strategy preset's dominant waveform parameter via
    /// [`ByzantineStrategy::with_magnitude`] (activates the attack).
    adv_offset_ns / adv_offset_ns: u64 => if_set "adv_ns" (bisect), group "adv_ns={}",
        reject |a| a == 0 || a > 10_000_000
            => "adv_offset_ns axis value {a} outside the supported 1..=10000000 \
                (a zero magnitude is the honest cell; 10 ms dwarfs every bound)";
    /// Aggregation trim degrees `f`: each replaces the preset's `f` in
    /// the configured fault-tolerant method (FTA or midpoint).
    fta_f / fta_f: usize => if_set "fta_f", group "f={}";
    /// Fleet sizes: ECDs attached to a *generated* switch fleet
    /// (activates the fleet; default 256). Mutually exclusive with the
    /// `hops`/`topology` axes: the generator owns depth and shape.
    fleet_nodes / fleet_nodes: u32 => if_set "fleet_n", group "fleet_n={}", since 7,
        reject |n| !(2..=65_536).contains(&n)
            => "fleet_nodes axis value {n} outside the supported 2..=65536";
    /// Fleet topology shapes ([`FLEET_TOPOLOGY_NAMES`] spellings;
    /// activates the fleet). Omitted, fleet runs use a line of switches.
    fleet_topology / fleet_topology: &'static str => if_set "fleet_topo",
        group "fleet_topo={}", since 7, one_of FLEET_TOPOLOGY_NAMES;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{ARTIFACT_SCHEMA, ARTIFACT_SCHEMA_COMPAT};

    /// What the declaration says about one axis.
    pub(super) struct Axis {
        pub grid: &'static str,
        pub coord: &'static str,
        pub label: &'static str,
        pub always: bool,
        pub since: u64,
    }

    /// Two distinct values the axis accepts, drawn from small integers,
    /// both booleans and every known value name.
    fn samples<T: AxisValue>(check: fn(T) -> Result<(), SpecError>) -> (T, T) {
        let names = ["identical", "diverse", "feedback", "feed_forward"]
            .into_iter()
            .chain(ByzantineStrategy::NAMES)
            .chain(FLEET_TOPOLOGY_NAMES);
        let mut accepted = (0..64)
            .map(Json::UInt)
            .chain([Json::Bool(false), Json::Bool(true)])
            .chain(names.map(|n| Json::Str(n.to_string())))
            .filter_map(|v| T::from_json(&v))
            .filter(|&v| check(v).is_ok());
        (accepted.next().unwrap(), accepted.next().unwrap())
    }

    /// The contract every axis keeps: spec-JSON and artifact-JSON round
    /// trips, its `runs_per_scenario` factor, its place in the odometer,
    /// repeated values rejected by name, the decode of records older
    /// than the axis, and label segments that render only as declared.
    pub(super) fn axis_contract<T: AxisValue>(
        axis: Axis,
        grid_axis: fn(&mut Grid) -> &mut Vec<T::Spec>,
        coord_axis: fn(&mut Coord) -> &mut Option<T>,
        check: fn(T) -> Result<(), SpecError>,
    ) {
        let name = axis.grid;
        let (a, b) = samples(check);
        let spec = |v: T| T::parse_spec(&v.to_json()).unwrap();
        let mut grid = Grid {
            seeds: vec![1, 2],
            ..Grid::default()
        };
        assert_eq!(grid.runs_per_scenario(), 2, "{name}");
        *grid_axis(&mut grid) = vec![spec(a), spec(b)];
        assert_eq!(grid.runs_per_scenario(), 4, "{name}");
        let json = grid.to_json();
        assert_eq!(
            json.get(name).and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(Grid::from_json(&json).unwrap(), grid, "{name}");
        let column: Vec<Option<T>> = grid
            .coords(&[ScenarioKind::Baseline])
            .unwrap()
            .into_iter()
            .map(|mut c| *coord_axis(&mut c))
            .collect();
        assert_eq!(column, [Some(a), Some(a), Some(b), Some(b)], "{name}");
        *grid_axis(&mut grid) = vec![spec(a), spec(a)];
        let err = grid.check().unwrap_err().to_string();
        assert!(err.contains(&format!("grid.{name} repeats")), "{err}");

        let unset = Coord::new(ScenarioKind::Baseline, 1);
        let mut set = unset;
        *coord_axis(&mut set) = Some(b);
        for c in [unset, set] {
            assert_eq!(
                Coord::from_json(&c.to_json(), ARTIFACT_SCHEMA),
                Some(c),
                "{name}"
            );
        }
        let Json::Object(mut pairs) = unset.to_json() else {
            unreachable!("a coordinate encodes as an object")
        };
        pairs.retain(|(key, _)| key != axis.coord);
        let old = Json::Object(pairs);
        let old_ok = Coord::from_json(&old, ARTIFACT_SCHEMA_COMPAT).is_some();
        assert_eq!(old_ok, axis.since > ARTIFACT_SCHEMA_COMPAT, "{name}");
        assert_eq!(Coord::from_json(&old, ARTIFACT_SCHEMA), None, "{name}");

        let segment = format!("/{}=", axis.label);
        assert_eq!(unset.label().contains(&segment), axis.always, "{name}");
        if axis.always {
            assert!(unset.label().contains(&format!("{segment}-")), "{name}");
        }
        let value = format!("{segment}{}", Label(b));
        assert!(set.label().contains(&value), "{name}");
        assert_eq!(unset.group_label(), "baseline");
        assert_ne!(set.group_label(), "baseline", "{name}");
    }

    #[test]
    fn every_declared_axis_keeps_its_contract() {
        check_every_axis();
    }

    #[test]
    fn bisectable_axes_take_probe_values() {
        for &axis in BISECTABLE {
            let mut grid = Grid::default();
            grid.set_probe(axis, 7).unwrap();
            assert_eq!(grid.to_json().get(axis).unwrap().render(), "[7]");
        }
        assert!(Grid::default().set_probe("topology", 7).is_err());
        // A probe the axis type cannot hold is an error, not a
        // truncated value that then passes the range checks.
        let too_big = u64::from(u32::MAX) + 2;
        assert!(Grid::default().set_probe("loss_permille", too_big).is_err());
    }
}
