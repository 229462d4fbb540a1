//! `PIM_OPT` environment override for the dataflow optimizer level.
//!
//! Kept in its own integration-test binary (and thus its own process):
//! [`pimeval::Device::new`] samples the variable at construction time,
//! so mutating it alongside other device-creating tests would race.

use pimeval::{Device, DeviceConfig, OptLevel, PimTarget};

fn opt_under(value: Option<&str>, config: DeviceConfig) -> OptLevel {
    match value {
        Some(v) => std::env::set_var("PIM_OPT", v),
        None => std::env::remove_var("PIM_OPT"),
    }
    let dev = Device::new(config).unwrap();
    let level = dev.config().opt;
    std::env::remove_var("PIM_OPT");
    level
}

#[test]
fn pim_opt_env_overrides_configured_level() {
    let base = || DeviceConfig::new(PimTarget::Fulcrum, 1);
    assert_eq!(opt_under(None, base()), OptLevel::O1, "default is level 1");
    assert_eq!(opt_under(Some("0"), base()), OptLevel::O0);
    assert_eq!(opt_under(Some("1"), base()), OptLevel::O1);
    assert_eq!(
        opt_under(Some("1"), base().with_opt_level(OptLevel::O0)),
        OptLevel::O1,
        "env wins over the configured level"
    );
    assert_eq!(
        opt_under(Some("0"), base().with_opt_level(OptLevel::O1)),
        OptLevel::O0,
        "env wins over the configured level"
    );
    assert_eq!(
        opt_under(Some("turbo"), base().with_opt_level(OptLevel::O0)),
        OptLevel::O0,
        "unknown values are ignored"
    );
    assert_eq!(
        opt_under(Some("2"), base().with_opt_level(OptLevel::O0)),
        OptLevel::O0,
        "the removed level 2 is an unknown value"
    );
}
