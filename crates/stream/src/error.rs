//! Configuration validation errors for the stream crate.

/// A configuration field rejected by a `validate` call
/// ([`StreamConfig::validate`](crate::StreamConfig::validate),
/// [`DatasetSpec::validate`](crate::DatasetSpec::validate),
/// [`DomainFactor::validate`](crate::DomainFactor::validate)).
///
/// `chameleon_core` re-exports it for `ChameleonConfig::validate`, so one
/// error type covers every config in the workspace. The `assert_valid`
/// companions panic with the same rendered message for call sites that
/// treat a bad configuration as a programming error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending field (or field combination).
    pub field: &'static str,
    /// What the field must satisfy.
    pub requirement: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.field, self.requirement)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_joins_field_and_requirement() {
        let e = ConfigError {
            field: "batch size",
            requirement: "must be positive",
        };
        assert_eq!(e.to_string(), "batch size must be positive");
    }
}
