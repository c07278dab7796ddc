"""Developer tools for this repository; not part of the ``repro``
package."""
