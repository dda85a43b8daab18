//! Typed reads of configuration variables (`CLOP_*`).

use crate::{ClopError, ClopResult};
use std::fmt::Debug;
use std::ops::RangeBounds;
use std::str::FromStr;

/// Typed reads of configuration variables through a lookup (a map in
/// tests, which must not set process variables). Unset and empty both
/// take the default; any other value must parse and be in range.
pub struct Vars<'a>(pub &'a dyn Fn(&str) -> Option<String>);

impl Vars<'_> {
    /// The process environment.
    pub fn env() -> Vars<'static> {
        Vars(&|name| std::env::var(name).ok())
    }

    /// The raw value, `None` when unset or empty.
    pub fn text(&self, name: &str) -> Option<String> {
        (self.0)(name).filter(|s| !s.is_empty())
    }

    /// A `T` in `range`.
    pub fn get<T>(
        &self,
        name: &str,
        default: T,
        range: impl RangeBounds<T> + Debug,
    ) -> ClopResult<T>
    where
        T: FromStr + PartialOrd,
    {
        let Some(raw) = self.text(name) else {
            return Ok(default);
        };
        match raw.parse::<T>() {
            Ok(v) if range.contains(&v) => Ok(v),
            _ => {
                let need = format!("need a {} in {:?}", std::any::type_name::<T>(), range);
                Err(ClopError::config(name, raw, need))
            }
        }
    }

    /// A switch: exactly `0` or `1`; off when unset.
    pub fn flag(&self, name: &str) -> ClopResult<bool> {
        match self.text(name).as_deref() {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(other) => Err(ClopError::config(name, other, "need 0 or 1")),
        }
    }
}
