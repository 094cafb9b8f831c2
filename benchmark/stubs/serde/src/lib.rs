//! Stand-in for `serde`: `rda-model` derives `Serialize` on its parameter
//! and result structs so the figure binaries can print JSON. The benchmark
//! reads those structs' fields directly, so the derives expand to nothing
//! and the traits are markers.

/// Marker for the derive; no serializer exists in this stand-in.
pub trait Serialize {}

/// Marker for the derive; no deserializer exists in this stand-in.
pub trait Deserialize<'de> {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
